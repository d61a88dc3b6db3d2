//! Thread-escape analysis as a static datarace front-end.
//!
//! ```sh
//! cargo run -p pda-bench --example escape_datarace
//! ```
//!
//! A datarace detector only needs to consider field accesses on objects
//! that *escape* their creating thread. This example poses one
//! thread-locality query per field access (exactly the paper's
//! Section 6 query generator) on a worker-queue program and reports which
//! accesses are proven race-free — plus what each proof cost.

use pda_analysis::PointsTo;
use pda_escape::EscapeClient;
use pda_tracer::{solve_queries_batch, BatchConfig, Outcome};
use pda_util::Idx;

const PROGRAM: &str = r#"
    global queue;

    class Task { field payload, next; }
    class Scratch { field tmp; }

    fn enqueue(t) {
        var old;
        old = queue;
        t.next = old;      // access on t: t escapes via queue below
        queue = t;
    }

    fn process() {
        var s, t, v;
        // Thread-private scratch space: never escapes.
        s = new Scratch;
        t = new Task;
        v = t.payload;     // access on t: local at this point
        s.tmp = v;         // access on s: provably local
        enqueue(t);
        v = t.payload;     // access on t: t has escaped now
    }

    fn main() {
        var w;
        w = null;
        while (*) { process(); }
        spawn w;
    }
"#;

fn main() {
    let program = pda_lang::parse_program(PROGRAM).expect("program parses");
    let pa = PointsTo::analyze(&program);
    let reach = pda_analysis::Reachability::compute(&program, &pa);
    let client = EscapeClient::new(&program);

    let accesses = EscapeClient::accesses(&program, reach.methods());
    let queries: Vec<_> = accesses
        .iter()
        .map(|&(point, var)| client.access_query(point, var))
        .collect();
    let callees = |c: pda_lang::CallId| pa.callees(c).to_vec();
    let config = BatchConfig { jobs: 1, ..BatchConfig::default() };
    let (results, stats) = solve_queries_batch(&program, &callees, &client, &queries, &config);

    println!("field accesses in reachable code: {}", accesses.len());
    println!(
        "forward runs: {} executed, {} shared across queries\n",
        stats.cache.misses, stats.cache.hits
    );
    for ((point, var), r) in accesses.iter().zip(&results) {
        let line = program.points[*point].line;
        let what = format!("line {line}: access on `{}`", program.var_name(*var));
        match &r.outcome {
            Outcome::Proven { param, cost } => {
                let sites: Vec<String> = param
                    .iter()
                    .map(|h| program.site_label(pda_lang::SiteId::from_usize(h)))
                    .collect();
                println!("{what:<34} race-free (|p| = {cost}: L = {{{}}})", sites.join(", "));
            }
            Outcome::Impossible => {
                println!("{what:<34} may race: object escapes under every abstraction");
            }
            Outcome::Unresolved(u) => println!("{what:<34} unresolved: {u:?}"),
        }
    }
}
