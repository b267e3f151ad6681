fn instrumented() {
    let _sp = epplan_obs::span("lp.simplex");
    epplan_obs::counter_add("lp.iterations", 1);
    epplan_obs::gauge_set("packing.width", 2.0);
    epplan_obs::observe("serve.op_latency_us", 42);
    let _w = epplan_obs::window("serve.window.op_latency_us", epplan_obs::WindowConfig::default());
    let _bad = epplan_obs::span("lp.typo");
    epplan_obs::counter_add("made.up.counter", 1);
    epplan_obs::gauge_set("nope.gauge", 1.0);
    epplan_obs::observe("rogue.histogram", 7);
    let _bw = epplan_obs::window("rogue.window", epplan_obs::WindowConfig::default());
    let _sc = epplan_obs::span("core.candidates.build");
    epplan_obs::gauge_set("gap.candidates.per_user", 12.5);
    epplan_obs::gauge_set("packing.arena.candidates", 4096.0);
    let _rp = epplan_obs::span("serve.repair");
    let _ce = epplan_obs::span("serve.certify");
    let _rb = epplan_obs::span("serve.rollback");
    epplan_obs::counter_add("flow.settled", 9);
}
