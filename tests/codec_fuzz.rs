//! Deterministic fuzz of the persistence codecs: the [`ParamCodec`]
//! abstraction-parameter encoding and the batch checkpoint format
//! (`CheckpointWriter` / `load_checkpoint`).
//!
//! Two contracts are exercised with a fixed-seed [`SplitMix64`]:
//!
//! * **Round-trip fidelity** — every randomly generated [`BitSet`]
//!   parameter and every randomly generated [`QueryResult`] (all outcome
//!   variants, hostile detail strings full of quotes, backslashes, and
//!   control characters, extreme counter values) must survive
//!   encode → decode bit-identically.
//! * **Adversarial rejection** — garbage bytes, wrong-kind and
//!   wrong-version headers, mismatched query counts, out-of-range
//!   indices, and corrupted interior records are rejected with a typed
//!   [`CheckpointError`]; a torn *final* record is tolerated (its query
//!   re-runs). None of it may panic.

use pda_tracer::{
    load_checkpoint, CheckpointError, CheckpointWriter, MetaStats, Outcome, ParamCodec,
    QueryResult, Unresolved,
};
use pda_util::{BitSet, SplitMix64};
use std::path::PathBuf;

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pda-codec-fuzz-{}-{name}.jsonl", std::process::id()))
}

fn random_bitset(rng: &mut SplitMix64) -> BitSet {
    let n = rng.gen_range(0, 80);
    let mut s = BitSet::new(n);
    if n > 0 {
        for _ in 0..rng.gen_range(0, n) {
            s.insert(rng.gen_range(0, n));
        }
    }
    s
}

/// Strings that stress the JSON escaping: quotes, backslashes, control
/// characters, multi-byte UTF-8, and the record delimiters themselves.
fn hostile_string(rng: &mut SplitMix64) -> String {
    const PIECES: &[&str] =
        &["\"", "\\", "\n", "\r", "\t", "\u{1}", "{", "}", ",", ":", "π∈Γ", "detail", "\\u0000"];
    (0..rng.gen_range(0, 6)).map(|_| *rng.pick(PIECES)).collect()
}

fn random_result(rng: &mut SplitMix64) -> QueryResult<BitSet> {
    let outcome = match rng.gen_range(0, 9) {
        0 => Outcome::Proven { param: random_bitset(rng), cost: rng.next_u64() },
        1 => Outcome::Impossible,
        2 => Outcome::Unresolved(Unresolved::IterationBudget),
        3 => Outcome::Unresolved(Unresolved::AnalysisTooBig),
        4 => Outcome::Unresolved(Unresolved::MetaFailure(hostile_string(rng))),
        5 => Outcome::Unresolved(Unresolved::DeadlineExceeded),
        6 => Outcome::Unresolved(Unresolved::EngineFault(hostile_string(rng))),
        7 => Outcome::Unresolved(Unresolved::Drained),
        _ => Outcome::Unresolved(Unresolved::MemBudgetExceeded),
    };
    QueryResult {
        outcome,
        iterations: rng.gen_range(0, 1 << 20),
        micros: u128::from(rng.next_u64()),
        retries: (rng.next_u64() & 0xff) as u32,
        meta: MetaStats {
            cubes_built: rng.next_u64(),
            subsumption_checks: rng.next_u64(),
            subsumption_fast_rejects: rng.next_u64(),
            wp_hits: rng.next_u64(),
            wp_misses: rng.next_u64(),
            approx_drops: rng.next_u64(),
            micros: rng.next_u64(),
        },
    }
}

#[test]
fn bitset_params_round_trip_bit_identically() {
    let mut rng = SplitMix64::new(0x0b17_5e7c_0dec);
    for _ in 0..2000 {
        let s = random_bitset(&mut rng);
        let encoded = s.encode_param();
        let decoded = BitSet::decode_param(&encoded).expect("own encoding must decode");
        assert_eq!(s, decoded, "round-trip changed {encoded:?}");
    }
}

#[test]
fn bitset_decode_is_total_on_garbage() {
    let mut rng = SplitMix64::new(0x00de_c0de_7e57);
    // Handcrafted near-misses…
    for s in ["", ":", "x:1", "5:9", "5:a", "5:-1", "18446744073709551616:0", "3:1,1,1,", "3:,,"] {
        let _ = BitSet::decode_param(s); // must not panic; None is fine
    }
    // …and random byte soup, valid-prefix mutations included.
    for _ in 0..2000 {
        let len = rng.gen_range(0, 24);
        let garbage: String = (0..len)
            .map(|_| char::from_u32((rng.next_u64() % 0x80) as u32).unwrap_or('?'))
            .collect();
        let _ = BitSet::decode_param(&garbage);
        let _ = BitSet::decode_param(&format!("9:{garbage}"));
    }
}

#[test]
fn checkpoint_records_round_trip_through_a_file() {
    let mut rng = SplitMix64::new(0x000c_8ecb_0a70_f11e);
    let path = temp_path("roundtrip");
    for round in 0..20 {
        let n = rng.gen_range_inclusive(1, 12);
        let results: Vec<QueryResult<BitSet>> =
            (0..n).map(|_| random_result(&mut rng)).collect();
        let mut w = CheckpointWriter::create(&path, n).unwrap();
        for (i, r) in results.iter().enumerate() {
            w.append(i, r).unwrap();
        }
        drop(w);
        let restored = load_checkpoint::<BitSet>(&path, n).unwrap();
        assert_eq!(restored.len(), n, "round {round}");
        for (i, r) in results.iter().enumerate() {
            assert_eq!(&restored[&i], r, "round {round}, record {i} changed in transit");
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn checkpoint_loader_rejects_garbage_without_panicking() {
    let mut rng = SplitMix64::new(0x06a5_ba6e_10ad);
    let path = temp_path("garbage");
    let header = "{\"v\":1,\"kind\":\"pda-batch-checkpoint\",\"queries\":4}";

    // Wholly random byte soup — any typed error is acceptable, a panic
    // is not. (A random first line is overwhelmingly a header mismatch.)
    for _ in 0..300 {
        let len = rng.gen_range(0, 200);
        let soup: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xff) as u8).collect();
        std::fs::write(&path, &soup).unwrap();
        match load_checkpoint::<BitSet>(&path, 4) {
            Err(_) => {}
            Ok(restored) => assert!(
                restored.is_empty(),
                "garbage produced {} phantom results",
                restored.len()
            ),
        }
    }

    // Wrong kind, wrong version, wrong query count: Mismatch.
    for bad in [
        "{\"v\":1,\"kind\":\"something-else\",\"queries\":4}",
        "{\"v\":99,\"kind\":\"pda-batch-checkpoint\",\"queries\":4}",
        "{\"v\":1,\"kind\":\"pda-batch-checkpoint\",\"queries\":5}",
        "not json at all",
        "",
    ] {
        std::fs::write(&path, format!("{bad}\n")).unwrap();
        assert!(
            matches!(load_checkpoint::<BitSet>(&path, 4), Err(CheckpointError::Mismatch(_))),
            "header {bad:?} must be a mismatch"
        );
    }

    // A corrupt *interior* record is an error; the same corruption as
    // the *final* line is a tolerated torn tail.
    let good = "{\"i\":0,\"outcome\":\"impossible\",\"iterations\":1,\"micros\":2,\
                \"m_cubes\":0,\"m_sub\":0,\"m_subf\":0,\
                \"m_wph\":0,\"m_wpm\":0,\"m_drop\":0,\"m_us\":0}";
    std::fs::write(&path, format!("{header}\n{{\"i\":1,\"outc\n{good}\n")).unwrap();
    assert!(
        matches!(load_checkpoint::<BitSet>(&path, 4), Err(CheckpointError::Corrupt { line: 2, .. })),
        "interior corruption must be fatal"
    );
    std::fs::write(&path, format!("{header}\n{good}\n{{\"i\":1,\"outc")).unwrap();
    let restored = load_checkpoint::<BitSet>(&path, 4).unwrap();
    assert_eq!(restored.len(), 1, "torn tail drops exactly the unfinished record");

    // An out-of-range index is corruption, not a silent skip.
    let oob = good.replace("\"i\":0", "\"i\":9");
    std::fs::write(&path, format!("{header}\n{oob}\n{good}\n")).unwrap();
    assert!(matches!(
        load_checkpoint::<BitSet>(&path, 4),
        Err(CheckpointError::Corrupt { line: 2, .. })
    ));

    // Mutated copies of a valid record: every mutant either decodes or
    // is rejected — interior position makes rejection fatal, which is
    // exactly the contract; final position must never panic either.
    for _ in 0..300 {
        let mut bytes = good.as_bytes().to_vec();
        let at = rng.gen_range(0, bytes.len());
        bytes[at] = (rng.next_u64() & 0xff) as u8;
        let mutant = String::from_utf8_lossy(&bytes).into_owned();
        std::fs::write(&path, format!("{header}\n{mutant}")).unwrap();
        let _ = load_checkpoint::<BitSet>(&path, 4);
    }
    std::fs::remove_file(&path).ok();
}
