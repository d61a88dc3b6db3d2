// Shared Jaylite test corpus, `include!`d by the tests that iterate the
// same programs (`engines_agree.rs`, `batch_scheduler.rs`, and the
// witness differential test in `crates/dataflow/src/rhs/witness_oracle.rs`).
// Not a test target itself — root `tests/` files are only built via the
// explicit `[[test]]` entries in `crates/bench/Cargo.toml`.

const PROGRAMS: &[&str] = &[
    r#"
    global g;
    class C { field f; }
    fn id(a) { return a; }
    fn main() {
        var x, y, z;
        x = new C;
        y = id(x);
        z = new C;
        y.f = z;
        if (*) { g = x; }
        query q1: local x;
        query q2: local z;
    }
    "#,
    r#"
    class W { fn work(); fn stop(); }
    class C { field f; }
    fn pick(a, b) { var r; if (*) { r = a; } else { r = b; } return r; }
    fn main() {
        var u, v, w;
        u = new W;
        v = new C;
        while (*) { w = pick(u, u); }
        u.work();
        query q1: local v;
        query q2: state u in { };
    }
    "#,
    r#"
    global shared;
    class C { field f; fn m(x) { this.f = x; return x; } }
    fn main() {
        var a, b, r;
        a = new C;
        b = new C;
        r = a.m(b);
        if (*) { shared = r; } else { r = null; }
        query q1: local a;
        query q2: local b;
    }
    "#,
];
