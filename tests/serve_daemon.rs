//! Integration tests for the `pda-serve` daemon (`pda_serve`):
//!
//! * **Soak equivalence** — serving every thread-escape query of the
//!   seeded hedc benchmark through the supervisor, over 1 and over 8
//!   concurrent connections, produces response lines byte-identical to
//!   each other and verdict-identical (outcome, optimum param, cost,
//!   iterations) to `solve_queries_batch`. The daemon is a transport, not
//!   a different analysis.
//! * **Fault injection** — a request whose solve panics at its
//!   fault-plane seam (`query.<i>@N=panic`) surfaces as a structured
//!   `engine_fault` response, quarantines the cache generation, and the
//!   very next request succeeds on the fresh generation; with a retry
//!   policy the same fault is absorbed without the client ever seeing
//!   it. The plane is process state, so each of these tests runs in a
//!   process of its own.
//! * **Kill and restart** — a daemon killed after finishing some queries
//!   resumes them all from its journal: no finished query is ever
//!   re-solved or lost, even with a torn tail from a crash mid-write.
//! * **Socket transport** — a real Unix-socket daemon serves health /
//!   solve / shutdown round-trips and drains cleanly.

use pda_analysis::PointsTo;
use pda_escape::{EscPrim, EscapeClient};
use pda_serve::{
    request_line, run_daemon, ConnState, DaemonOptions, LineBuilder, ServeConfig, Supervisor,
};
use pda_suite::Benchmark;
use pda_tracer::{
    outcome_tag, solve_queries_batch, BatchConfig, Outcome, ParamCodec, Query, RetryPolicy,
};
use pda_util::{faultplane, json::parse_json_line};
use std::collections::HashMap;
use std::path::PathBuf;

include!("corpus.rs");
include!("own_process.rs");

/// The seeded suite benchmark the batch smokes use: the first with >= 16
/// thread-escape access queries (hedc under the default suite), capped to
/// keep debug-build runtime reasonable.
fn hedc_workload() -> (Benchmark, usize) {
    let bench = pda_suite::suite()
        .into_iter()
        .map(Benchmark::load)
        .find(|b| EscapeClient::accesses(&b.program, b.app_methods()).len() >= 16)
        .expect("some suite benchmark has >=16 escape queries");
    (bench, 10)
}

fn access_queries(
    bench: &Benchmark,
    client: &EscapeClient,
    cap: usize,
) -> (Vec<String>, Vec<Query<EscPrim>>) {
    EscapeClient::accesses(&bench.program, bench.app_methods())
        .iter()
        .take(cap)
        .enumerate()
        .map(|(i, &(point, var))| (format!("q{i}"), client.access_query(point, var)))
        .unzip()
}

fn solve_line(index: usize) -> String {
    LineBuilder::new().str("op", "solve").num("index", index as u128).finish()
}

fn fields(line: &str) -> HashMap<String, String> {
    parse_json_line(line).unwrap_or_else(|| panic!("response is not flat JSON: {line}"))
}

/// Drives every query through `sup`, one dedicated `ConnState` per
/// simulated connection, queries dealt round-robin. Returns response
/// lines in query order.
fn serve_all(
    sup: &Supervisor<'_, EscapeClient>,
    n_queries: usize,
    connections: usize,
) -> Vec<String> {
    let mut responses: Vec<(usize, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|conn_id| {
                scope.spawn(move || {
                    let mut conn = ConnState::new(sup.generation());
                    (conn_id..n_queries)
                        .step_by(connections)
                        .map(|i| {
                            let reply = sup.handle_line(&mut conn, &solve_line(i));
                            assert!(!reply.quarantine, "healthy solve quarantined: {}", reply.text);
                            assert!(!reply.shutdown);
                            (i, reply.text)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("connection thread")).collect()
    });
    responses.sort_by_key(|(i, _)| *i);
    responses.into_iter().map(|(_, line)| line).collect()
}

#[test]
fn soak_over_hedc_matches_the_batch_driver_across_connection_counts() {
    let (bench, cap) = hedc_workload();
    let client = EscapeClient::new(&bench.program);
    let (labels, queries) = access_queries(&bench, &client, cap);
    let callees = bench.callees();

    let (batch, _) = solve_queries_batch(
        &bench.program,
        &callees,
        &client,
        &queries,
        &BatchConfig::default(),
    );

    let mut runs = Vec::new();
    for connections in [1, 8] {
        let sup = Supervisor::new(
            &bench.program,
            &callees,
            &client,
            queries.clone(),
            labels.clone(),
            ServeConfig::default(),
        );
        let responses = serve_all(&sup, queries.len(), connections);
        assert_eq!(sup.served(), queries.len() as u64);
        assert_eq!(sup.faults(), 0);
        assert_eq!(sup.quarantines(), 0);
        runs.push(responses);
    }
    assert_eq!(
        runs[0], runs[1],
        "response lines must be byte-identical across connection counts"
    );

    for (i, (line, reference)) in runs[0].iter().zip(&batch).enumerate() {
        let f = fields(line);
        assert_eq!(f["index"], i.to_string());
        assert_eq!(f["label"], format!("q{i}"));
        assert_eq!(f["iterations"], reference.iterations.to_string());
        assert_eq!(f["retries"], "0");
        assert_eq!(f["generation"], "0");
        assert_eq!(f["resumed"], "false");
        match &reference.outcome {
            Outcome::Proven { param, cost } => {
                assert_eq!(f["ok"], "true");
                assert_eq!(f["outcome"], "proven");
                assert_eq!(f["param"], param.encode_param(), "optimum diverged for query {i}");
                assert_eq!(f["cost"], cost.to_string());
            }
            Outcome::Impossible => {
                assert_eq!(f["ok"], "true");
                assert_eq!(f["outcome"], "impossible");
            }
            Outcome::Unresolved(_) => {
                assert_eq!(f["ok"], "false");
                assert_eq!(f["error"], outcome_tag(&reference.outcome));
            }
        }
    }
}

/// A tiny corpus fixture for the supervision-path tests, where the
/// analysis itself is irrelevant.
struct Fixture {
    program: pda_lang::Program,
    pa: PointsTo,
}

impl Fixture {
    fn new() -> Fixture {
        let program = pda_lang::parse_program(PROGRAMS[0]).unwrap();
        let pa = PointsTo::analyze(&program);
        Fixture { program, pa }
    }

    fn callees(&self) -> impl Fn(pda_lang::CallId) -> Vec<pda_lang::MethodId> + Sync + '_ {
        |c| self.pa.callees(c).to_vec()
    }

    fn queries(&self, client: &EscapeClient) -> (Vec<String>, Vec<Query<EscPrim>>) {
        self.program
            .queries
            .iter_enumerated()
            .filter(|(_, d)| matches!(d.kind, pda_lang::QueryKind::Local { .. }))
            .enumerate()
            .map(|(i, (qid, _))| (format!("q{i}"), client.local_query(&self.program, qid)))
            .unzip()
    }
}

fn temp_path(stem: &str) -> PathBuf {
    std::env::temp_dir().join(format!("{stem}-{}", std::process::id()))
}

#[test]
fn injected_panic_is_isolated_quarantined_and_survivable() {
    in_own_process("injected_panic_is_isolated_quarantined_and_survivable", || {
        let fx = Fixture::new();
        let client = EscapeClient::new(&fx.program);
        let callees = fx.callees();
        let (mut labels, mut queries) = fx.queries(&client);
        assert!(!queries.is_empty());
        // A copy of query 0 whose solve panics in each of the rounds.
        let bomb = queries.len();
        labels.push(format!("q{bomb}"));
        queries.push(queries[0].clone());
        let sup = Supervisor::new(
            &fx.program,
            &callees,
            &client,
            queries,
            labels,
            ServeConfig::default(),
        );
        let mut conn = ConnState::new(sup.generation());

        const ROUNDS: u64 = 5;
        let plan: Vec<String> = (1..=ROUNDS).map(|h| format!("query.{bomb}@{h}=panic")).collect();
        faultplane::install(&plan.join(";")).unwrap();
        let mut healthy_baseline: Option<HashMap<String, String>> = None;
        for round in 0..ROUNDS {
            // The panic must come back as a structured fault on the
            // generation it ran under, and retire that generation.
            let reply = sup.handle_line(&mut conn, &solve_line(bomb));
            let f = fields(&reply.text);
            assert_eq!(f["ok"], "false");
            assert_eq!(f["error"], "engine_fault");
            assert!(f["detail"].contains(&format!("`query.{bomb}`")), "detail: {}", f["detail"]);
            assert_eq!(f["generation"], round.to_string());
            assert!(reply.quarantine);
            assert_eq!(sup.quarantines(), round + 1, "a fault must quarantine the generation");
            assert_eq!(sup.generation(), round + 1);

            // The daemon keeps serving: the next request lands on the
            // fresh generation and succeeds.
            let reply = sup.handle_line(&mut conn, &solve_line(0));
            let mut f = fields(&reply.text);
            assert_eq!(sup.quarantines(), round + 1, "a healthy solve must not quarantine");
            assert_eq!(sup.generation(), round + 1);
            assert_eq!(f["ok"], "true");
            assert_eq!(f.remove("generation").unwrap(), (round + 1).to_string());
            // The first healthy verdict is memoized; later rounds serve it
            // from memory (verdicts are durable even when caches are not).
            let resumed = f.remove("resumed").unwrap();
            assert_eq!(resumed, if round == 0 { "false" } else { "true" });
            match &healthy_baseline {
                None => healthy_baseline = Some(f),
                Some(first) => assert_eq!(&f, first, "verdict drifted across quarantines"),
            }
        }
        faultplane::clear();
        assert_eq!(sup.faults(), ROUNDS);
        assert_eq!(sup.quarantines(), ROUNDS);
        assert_eq!(sup.served(), ROUNDS);

        let health = sup.handle_line(&mut conn, r#"{"op":"health"}"#);
        let f = fields(&health.text);
        assert_eq!(f["ready"], "true");
        assert_eq!(f["generation"], ROUNDS.to_string());
        assert_eq!(f["served"], ROUNDS.to_string());
        assert_eq!(f["faults"], ROUNDS.to_string());
        assert_eq!(f["quarantines"], ROUNDS.to_string());

        // Error paths stay structured too; the retired `inject` field is
        // an unknown key, not a silent plain solve.
        let f = fields(&sup.handle_line(&mut conn, &solve_line(999)).text);
        assert_eq!(f["error"], "unknown_query");
        let f = fields(&sup.handle_line(&mut conn, "not json at all").text);
        assert_eq!(f["error"], "bad_request");
        let inject = LineBuilder::new().str("op", "solve").num("index", 0).str("inject", "panic");
        let f = fields(&sup.handle_line(&mut conn, &inject.finish()).text);
        assert_eq!(f["error"], "bad_request");
        assert_eq!(sup.served(), ROUNDS, "a rejected request is not served");
    });
}

#[test]
fn fault_injecting_client_soak_never_kills_the_daemon() {
    in_own_process("fault_injecting_client_soak_never_kills_the_daemon", || {
        use pda_tracer::{nullcli::NullClient, solve_query, TracerConfig};

        let program = pda_lang::parse_program(PROGRAMS[0]).unwrap();
        let pa = PointsTo::analyze(&program);
        let callees = |c: pda_lang::CallId| pa.callees(c).to_vec();
        let client = NullClient::new(&program);

        // Fault-free sequential baseline: the reference every healthy
        // daemon response must match bit for bit.
        let plain: Vec<_> = program
            .queries
            .iter_enumerated()
            .map(|(qid, _)| client.query(&program, qid))
            .collect();
        let config = TracerConfig::default();
        let baseline: Vec<_> =
            plain.iter().map(|q| solve_query(&program, &callees, &client, q, &config)).collect();

        // The daemon corpus: every healthy query, plus a copy of query 0
        // whose first solve panics.
        let healthy = plain.len();
        let mut queries = plain.clone();
        queries.push(plain[0].clone());
        let labels: Vec<String> = (0..queries.len()).map(|i| format!("q{i}")).collect();

        let sup =
            Supervisor::new(&program, &callees, &client, queries, labels, ServeConfig::default());
        let mut conn = ConnState::new(sup.generation());
        let check_healthy = |f: &HashMap<String, String>, i: usize, generation: u64| {
            let reference = &baseline[i];
            assert_eq!(f["generation"], generation.to_string(), "query {i} on a retired generation");
            assert_eq!(f["iterations"], reference.iterations.to_string());
            match &reference.outcome {
                Outcome::Proven { param, cost } => {
                    assert_eq!(f["outcome"], "proven");
                    assert_eq!(f["param"], param.encode_param(), "query {i} diverged");
                    assert_eq!(f["cost"], cost.to_string());
                }
                Outcome::Impossible => assert_eq!(f["outcome"], "impossible"),
                Outcome::Unresolved(_) => panic!("baseline query {i} did not resolve"),
            }
        };

        // Healthy request, then the bomb, then more healthy requests: the
        // panic is one structured fault, everything around it is untouched.
        faultplane::install(&format!("query.{healthy}@1=panic")).unwrap();
        check_healthy(&fields(&sup.handle_line(&mut conn, &solve_line(0)).text), 0, 0);

        let reply = sup.handle_line(&mut conn, &solve_line(healthy));
        let f = fields(&reply.text);
        assert_eq!(f["error"], "engine_fault");
        assert!(f["detail"].contains(&format!("`query.{healthy}`")), "detail: {}", f["detail"]);
        assert!(reply.quarantine);

        // Every post-panic request must run on (and report) the fresh
        // generation — never the quarantined one.
        for i in 1..healthy {
            check_healthy(&fields(&sup.handle_line(&mut conn, &solve_line(i)).text), i, 1);
        }
        // The seam's second visit is clean: the copy now solves healthily
        // and matches the baseline of the query it copied.
        check_healthy(&fields(&sup.handle_line(&mut conn, &solve_line(healthy)).text), 0, 1);
        faultplane::clear();

        assert_eq!(sup.faults(), 1);
        assert_eq!(sup.quarantines(), 1);
        assert_eq!(sup.served(), healthy as u64 + 1);
    });
}

#[test]
fn retry_policy_absorbs_an_injected_fault() {
    in_own_process("retry_policy_absorbs_an_injected_fault", || {
        let fx = Fixture::new();
        let client = EscapeClient::new(&fx.program);
        let callees = fx.callees();
        let serve = |config: ServeConfig| {
            let (labels, queries) = fx.queries(&client);
            Supervisor::new(&fx.program, &callees, &client, queries, labels, config)
        };

        // The panic fires only on attempt 0; the retry ladder re-runs the
        // query and the client sees a clean verdict, never the fault.
        let retry = Some(RetryPolicy::deterministic(2));
        let sup = serve(ServeConfig { retry, ..ServeConfig::default() });
        let mut conn = ConnState::new(sup.generation());
        faultplane::install("query.0@1=panic").unwrap();
        let reply = sup.handle_line(&mut conn, &solve_line(0));
        faultplane::clear();
        let f = fields(&reply.text);
        assert_eq!(f["ok"], "true", "retry must absorb the fault: {}", reply.text);
        assert_eq!(f["retries"], "1");
        assert!(!reply.quarantine, "an absorbed fault must not quarantine");
        assert_eq!(sup.faults(), 0);
        assert_eq!(sup.quarantines(), 0);
        assert_eq!(sup.served(), 1);

        // Without a policy the same fault reaches the client.
        let sup = serve(ServeConfig::default());
        let mut conn = ConnState::new(sup.generation());
        faultplane::install("query.0@1=panic").unwrap();
        let reply = sup.handle_line(&mut conn, &solve_line(0));
        faultplane::clear();
        assert_eq!(fields(&reply.text)["error"], "engine_fault");
        assert!(reply.quarantine);
        assert_eq!((sup.faults(), sup.quarantines()), (1, 1));
    });
}

#[test]
fn kill_and_restart_resumes_every_finished_query_from_the_journal() {
    let (bench, cap) = hedc_workload();
    let cap = cap.min(6);
    let client = EscapeClient::new(&bench.program);
    let (labels, queries) = access_queries(&bench, &client, cap);
    let callees = bench.callees();
    let journal = temp_path("pda-serve-journal");
    let _ = std::fs::remove_file(&journal);
    let solved = cap / 2;

    // First life: finish half the corpus, then die (journal closed, the
    // supervisor dropped — the daemon equivalent of a SIGKILL between
    // requests, since every record is flushed as it lands).
    let mut first_lines = Vec::new();
    {
        let mut sup = Supervisor::new(
            &bench.program,
            &callees,
            &client,
            queries.clone(),
            labels.clone(),
            ServeConfig::default(),
        );
        assert_eq!(sup.attach_journal(journal.clone()), Ok(0));
        let mut conn = ConnState::new(sup.generation());
        for i in 0..solved {
            first_lines.push(sup.handle_line(&mut conn, &solve_line(i)).text);
        }
        sup.close_journal();
    }

    // Second life: every finished query comes back from the journal,
    // verdict-identical, without re-solving; the rest still solve fresh.
    let mut sup = Supervisor::new(
        &bench.program,
        &callees,
        &client,
        queries.clone(),
        labels.clone(),
        ServeConfig::default(),
    );
    assert_eq!(sup.attach_journal(journal.clone()), Ok(solved), "no finished query may be lost");
    let mut conn = ConnState::new(sup.generation());
    for (i, first) in first_lines.iter().enumerate() {
        let mut f = fields(&sup.handle_line(&mut conn, &solve_line(i)).text);
        assert_eq!(f.remove("resumed").unwrap(), "true", "query {i} was re-solved");
        let mut orig = fields(first);
        orig.remove("resumed");
        assert_eq!(f, orig, "resumed verdict diverged for query {i}");
    }
    for i in solved..cap {
        let f = fields(&sup.handle_line(&mut conn, &solve_line(i)).text);
        assert_eq!(f["resumed"], "false");
    }
    assert_eq!(sup.served(), cap as u64);
    sup.close_journal();

    // Third life, after a crash mid-append: a torn final record is
    // dropped by the journal load and compacted away; every *finished*
    // record survives.
    {
        use std::io::Write;
        let mut file =
            std::fs::OpenOptions::new().append(true).open(&journal).expect("journal exists");
        write!(file, "{{\"i\":99,\"outcome\":\"pro").expect("tear the tail");
    }
    let mut sup = Supervisor::new(
        &bench.program,
        &callees,
        &client,
        queries.clone(),
        labels.clone(),
        ServeConfig::default(),
    );
    assert_eq!(sup.attach_journal(journal.clone()), Ok(cap));

    // And the batch op resumes the whole corpus from the same journal
    // without re-solving anything.
    let mut conn = ConnState::new(sup.generation());
    let f = fields(&sup.handle_line(&mut conn, r#"{"op":"batch"}"#).text);
    assert_eq!(f["ok"], "true");
    assert_eq!(f["queries"], cap.to_string());
    assert_eq!(f["resumed"], cap.to_string(), "batch re-solved journaled queries");
    sup.close_journal();
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn socket_daemon_serves_and_drains_on_shutdown() {
    let fx = Fixture::new();
    let client = EscapeClient::new(&fx.program);
    let callees = fx.callees();
    let (labels, queries) = fx.queries(&client);
    let socket = temp_path("pda-serve-sock");
    let _ = std::fs::remove_file(&socket);

    let report = std::thread::scope(|scope| {
        let daemon = {
            let socket = socket.clone();
            let callees = &callees;
            let client = &client;
            let program = &fx.program;
            scope.spawn(move || {
                run_daemon(
                    program,
                    callees,
                    client,
                    queries,
                    labels,
                    ServeConfig::default(),
                    &DaemonOptions { socket: Some(socket), ..DaemonOptions::default() },
                )
            })
        };
        // Wait for the bind before connecting.
        for _ in 0..500 {
            if socket.exists() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert!(socket.exists(), "daemon never bound its socket");

        let health = fields(&request_line(&socket, r#"{"op":"health"}"#).expect("health"));
        assert_eq!(health["ok"], "true");
        assert_eq!(health["ready"], "true");

        let solved = fields(&request_line(&socket, &solve_line(0)).expect("solve"));
        assert_eq!(solved["ok"], "true");
        assert_eq!(solved["index"], "0");

        let bye = fields(&request_line(&socket, r#"{"op":"shutdown"}"#).expect("shutdown"));
        assert_eq!(bye["draining"], "true");

        daemon.join().expect("daemon thread").expect("daemon drains cleanly")
    });
    assert_eq!(report.served, 1);
    assert_eq!(report.faults, 0);
    assert_eq!(report.quarantines, 0);
    assert!(!socket.exists(), "a drained daemon removes its socket file");
}

