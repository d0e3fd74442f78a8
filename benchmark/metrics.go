package main

// metric describes one number of the ledger. BENCHMARK.json carries name,
// unit, direction and (end to end) bound; the rest documents where the number
// comes from and what it is expected to move, and is printed with -describe.
type metric struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: allowed worsening of the median, as a share
	// Source is how a per-layer metric is obtained: "span" from the traced
	// operation, "probe" from a timed loop on the layer's public function,
	// "count" from a telemetry counter or Stats() (expected to repeat
	// exactly), "self" for the benchmark's view of itself.
	Source string
	// Moves names the end-to-end metric@workload the number should move.
	Moves string
}

// workloadDef names a workload and says why it exists.
type workloadDef struct {
	Name string
	Why  string
	run  func(*env) (*report, error)
}

var workloads = []workloadDef{
	{"train-cold", "Algorithm 2 offline: six Table-2 policies at full fidelity over a fresh surface cache; mdp does the work and every cache lookup misses", runTrainCold},
	{"fig05-sim", "the paper's headline run: the RAC agent over contexts 1-2-3 on the simulator; webtier does the work and the agent takes its context-change path", runFig05},
	{"fleet-steady", "Algorithm 3 at fan-out: 1000 analytic tenants for 30 rounds; single exact-MVA solves plus agent learning on shared copy-on-write Q rows", runFleetSteady},
	{"live-ladder", "the data plane, open loop: Poisson arrivals from returning visitors at 1000 and 2000 req/s through the open gate, then 6000 req/s against the gate at 6; no RL code runs", runLiveLadder},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// endToEnd is what a user of the system sees, in one vocabulary for all four
// workloads; the README says what each name means on each workload. A bound
// has to hold on the noisiest workload that reports the metric. Every number
// that is a time moved 5–17 % run to run on the shared 2-core box this was
// built on (the README's noise table), so those bounds sit at 0.25, the most
// the acceptance contract allows. Heap repeats to 0.1 % on the control-plane
// workloads and to 5 % on live-ladder's megabyte; SLO share to 0.2 %.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "heap_live_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "rt_over_sla", Unit: "ratio", Better: "lower", Bound: 0.25},
	{Name: "slo_share", Unit: "ratio", Better: "higher", Bound: 0.05},
}

// perLayer is the ledger by module. A metric reads 0 on a workload that never
// enters its layer — that zero is the "should not move" column.
var perLayer = []metric{
	// mdp
	{Name: "mdp.batchtrain_ms", Unit: "ms", Better: "lower", Source: "probe", Moves: "ops_per_s@train-cold"},
	{Name: "mdp.batchtrain_sweeps", Unit: "count", Better: "lower", Source: "probe", Moves: "ops_per_s@train-cold"},
	{Name: "mdp.region_retrain_us", Unit: "us", Better: "lower", Source: "probe", Moves: "ops_per_s,cpu_us_per_op@fleet-steady"},
	{Name: "mdp.td_update_ns", Unit: "ns", Better: "lower", Source: "probe", Moves: "ops_per_s@train-cold,fleet-steady"},
	{Name: "mdp.cow_row_ns", Unit: "ns", Better: "lower", Source: "probe", Moves: "heap_live_mb,ops_per_s@fleet-steady"},
	{Name: "mdp.readrow_ns", Unit: "ns", Better: "lower", Source: "probe", Moves: "ops_per_s@fleet-steady"},
	{Name: "mdp.qtable_save_us", Unit: "us", Better: "lower", Source: "probe", Moves: "fleet.checkpoint_ms_p50"},
	{Name: "mdp.qtable_save_bytes", Unit: "B", Better: "lower", Source: "probe", Moves: "fleet.checkpoint_bytes"},
	// queueing
	{Name: "queueing.website_solve_us", Unit: "us", Better: "lower", Source: "probe", Moves: "ops_per_s@fleet-steady"},
	{Name: "queueing.batch16_us", Unit: "us", Better: "lower", Source: "probe", Moves: "ops_per_s@train-cold"},
	{Name: "queueing.exact_mva_us", Unit: "us", Better: "lower", Source: "probe", Moves: "ops_per_s@fleet-steady"},
	{Name: "queueing.approx_mva_us", Unit: "us", Better: "lower", Source: "probe", Moves: "ops_per_s@fleet-steady"},
	{Name: "queueing.solves", Unit: "count", Better: "lower", Source: "count", Moves: "ops_per_s@fleet-steady,train-cold"},
	{Name: "queueing.busy_share", Unit: "ratio", Better: "lower", Source: "span", Moves: "ops_per_s@fleet-steady"},
	// surface
	{Name: "surface.do_miss_ns", Unit: "ns", Better: "lower", Source: "probe", Moves: "ops_per_s@train-cold"},
	{Name: "surface.do_hit_ns", Unit: "ns", Better: "lower", Source: "probe", Moves: "setup_s@fig05-sim"},
	{Name: "surface.do_contended_ns", Unit: "ns", Better: "lower", Source: "probe", Moves: "setup_s@fig05-sim"},
	{Name: "surface.hits", Unit: "count", Better: "higher", Source: "count", Moves: "setup_s@fig05-sim"},
	{Name: "surface.misses", Unit: "count", Better: "lower", Source: "count", Moves: "ops_per_s@train-cold"},
	{Name: "surface.hit_ratio", Unit: "ratio", Better: "higher", Source: "count", Moves: "setup_s@fig05-sim"},
	// regression
	{Name: "regression.fit_quadratic_ms", Unit: "ms", Better: "lower", Source: "probe", Moves: "ops_per_s@train-cold"},
	// core
	{Name: "core.learn_policy_self_ms", Unit: "ms", Better: "lower", Source: "span", Moves: "ops_per_s@train-cold"},
	{Name: "core.step_us_p50", Unit: "us", Better: "lower", Source: "span", Moves: "op_ms_p50@fig05-sim"},
	{Name: "core.step_us_p90", Unit: "us", Better: "lower", Source: "span", Moves: "ops_per_s@fig05-sim"},
	{Name: "core.step_apply_us", Unit: "us", Better: "lower", Source: "span", Moves: "op_ms_p50@fig05-sim"},
	{Name: "core.step_measure_us", Unit: "us", Better: "lower", Source: "span", Moves: "op_ms_p50@fig05-sim; ops_per_s@fleet-steady"},
	{Name: "core.step_self_us", Unit: "us", Better: "lower", Source: "span", Moves: "ops_per_s,cpu_us_per_op@fleet-steady"},
	{Name: "core.steps", Unit: "count", Better: "lower", Source: "count", Moves: "rt_over_sla,slo_share@fig05-sim"},
	{Name: "core.retrains", Unit: "count", Better: "lower", Source: "count", Moves: "rt_over_sla,slo_share@fig05-sim"},
	{Name: "core.policy_switches", Unit: "count", Better: "lower", Source: "count", Moves: "rt_over_sla,slo_share@fig05-sim"},
	{Name: "core.export_state_us", Unit: "us", Better: "lower", Source: "probe", Moves: "fleet.checkpoint_ms_p50"},
	{Name: "core.export_state_bytes", Unit: "B", Better: "lower", Source: "probe", Moves: "fleet.checkpoint_bytes"},
	// webtier / system
	{Name: "webtier.sim_minute_ms", Unit: "ms", Better: "lower", Source: "probe", Moves: "op_ms_p50@fig05-sim"},
	{Name: "webtier.virtual_s_per_wall_s", Unit: "1/s", Better: "higher", Source: "probe", Moves: "op_ms_p50@fig05-sim"},
	{Name: "webtier.busy_share", Unit: "ratio", Better: "lower", Source: "span", Moves: "op_ms_p50@fig05-sim"},
	{Name: "system.sim_measure_ms_p50", Unit: "ms", Better: "lower", Source: "span", Moves: "op_ms_p50@fig05-sim"},
	// fleet / parallel
	{Name: "fleet.round_ms_p50", Unit: "ms", Better: "lower", Source: "span", Moves: "ops_per_s@fleet-steady"},
	{Name: "fleet.round_ms_max", Unit: "ms", Better: "lower", Source: "span", Moves: "ops_per_s@fleet-steady"},
	{Name: "fleet.round_drift_ratio", Unit: "ratio", Better: "lower", Source: "span", Moves: "ops_per_s@fleet-steady"},
	{Name: "fleet.sched_overhead_share", Unit: "ratio", Better: "lower", Source: "span", Moves: "ops_per_s@fleet-steady"},
	{Name: "fleet.admit_us_p50", Unit: "us", Better: "lower", Source: "span", Moves: "setup_s@fleet-steady"},
	{Name: "fleet.heap_bytes_per_tenant_admit", Unit: "B", Better: "lower", Source: "count", Moves: "heap_live_mb@fleet-steady"},
	{Name: "fleet.heap_bytes_per_tenant", Unit: "B", Better: "lower", Source: "count", Moves: "heap_live_mb@fleet-steady"},
	{Name: "fleet.checkpoint_ms_p50", Unit: "ms", Better: "lower", Source: "probe", Moves: "none end to end (fsync only here)"},
	{Name: "fleet.checkpoint_bytes", Unit: "B", Better: "lower", Source: "count", Moves: "none end to end"},
	{Name: "fleet.admin_checkpoint_ms_p50", Unit: "ms", Better: "lower", Source: "probe", Moves: "none end to end"},
	{Name: "fleet.restore_s", Unit: "s", Better: "lower", Source: "probe", Moves: "none end to end"},
	{Name: "fleet.restored", Unit: "count", Better: "higher", Source: "count", Moves: "none end to end"},
	{Name: "fleet.rounds", Unit: "count", Better: "lower", Source: "count", Moves: "pins the work done"},
	{Name: "fleet.warm_starts", Unit: "count", Better: "higher", Source: "count", Moves: "setup_s@fleet-steady"},
	{Name: "parallel.tasks", Unit: "count", Better: "lower", Source: "count", Moves: "ops_per_s@fleet-steady,train-cold"},
	{Name: "parallel.queue_wait_s", Unit: "s", Better: "lower", Source: "count", Moves: "ops_per_s@fleet-steady"},
	// admission
	{Name: "admission.gate_enter_ns", Unit: "ns", Better: "lower", Source: "probe", Moves: "ops_per_s@live-ladder"},
	{Name: "admission.gate_enter_contended_ns", Unit: "ns", Better: "lower", Source: "probe", Moves: "ops_per_s@live-ladder"},
	{Name: "admission.controller_observe_ns", Unit: "ns", Better: "lower", Source: "probe", Moves: "ops_per_s@live-ladder"},
	{Name: "admission.admitted", Unit: "count", Better: "higher", Source: "count", Moves: "ops_per_s@live-ladder"},
	{Name: "admission.rejected", Unit: "count", Better: "lower", Source: "count", Moves: "ops_per_s@live-ladder"},
	{Name: "admission.reject_ratio_overload", Unit: "ratio", Better: "lower", Source: "count", Moves: "ops_per_s@live-ladder"},
	// httpd
	{Name: "httpd.rt_p50_ms_r1000", Unit: "ms", Better: "lower", Source: "span", Moves: "op_ms_p50@live-ladder"},
	{Name: "httpd.rt_p99_ms_r1000", Unit: "ms", Better: "lower", Source: "span", Moves: "slo_share@live-ladder"},
	{Name: "httpd.rt_p99_ms_r2000", Unit: "ms", Better: "lower", Source: "span", Moves: "slo_share@live-ladder"},
	{Name: "httpd.rt_p99_ms_overload", Unit: "ms", Better: "lower", Source: "span", Moves: "ops_per_s@live-ladder"},
	{Name: "httpd.server_rt_mean_ms", Unit: "ms", Better: "lower", Source: "count", Moves: "op_ms_p50,rt_over_sla@live-ladder"},
	{Name: "httpd.transport_overhead_ms", Unit: "ms", Better: "lower", Source: "count", Moves: "op_ms_p50@live-ladder"},
	{Name: "httpd.served", Unit: "count", Better: "higher", Source: "count", Moves: "slo_share@live-ladder"},
	{Name: "httpd.rejected", Unit: "count", Better: "lower", Source: "count", Moves: "ops_per_s@live-ladder"},
	{Name: "httpd.replayed", Unit: "count", Better: "lower", Source: "count", Moves: "slo_share@live-ladder"},
	{Name: "httpd.sessions", Unit: "count", Better: "lower", Source: "count", Moves: "op_ms_p50,rt_over_sla@live-ladder"},
	{Name: "httpd.reconfigure_ms", Unit: "ms", Better: "lower", Source: "span", Moves: "none end to end"},
	// loadgen, workload: baselines nothing end to end reads yet
	{Name: "loadgen.offered", Unit: "count", Better: "higher", Source: "count", Moves: "none yet"},
	{Name: "loadgen.completed", Unit: "count", Better: "higher", Source: "count", Moves: "none yet"},
	{Name: "loadgen.shed", Unit: "count", Better: "lower", Source: "count", Moves: "none yet"},
	{Name: "loadgen.shed_ratio", Unit: "ratio", Better: "lower", Source: "count", Moves: "none yet"},
	{Name: "loadgen.run_overrun_ms", Unit: "ms", Better: "lower", Source: "probe", Moves: "none yet"},
	{Name: "loadgen.mean_rt_bias_ms", Unit: "ms", Better: "lower", Source: "probe", Moves: "none yet"},
	{Name: "workload.compile_ms", Unit: "ms", Better: "lower", Source: "probe", Moves: "none yet"},
	{Name: "workload.window_us", Unit: "us", Better: "lower", Source: "probe", Moves: "none yet"},
	// output quality, in the paper's own units
	{Name: "quality.mean_rt_s", Unit: "s", Better: "lower", Source: "count", Moves: "rt_over_sla@fig05-sim,fleet-steady"},
	{Name: "quality.rt_vs_static", Unit: "ratio", Better: "lower", Source: "count", Moves: "rt_over_sla@fig05-sim"},
	{Name: "quality.sla_violations", Unit: "count", Better: "lower", Source: "count", Moves: "slo_share@fig05-sim"},
	// the benchmark about itself
	{Name: "benchmark.client_late_ms_p99", Unit: "ms", Better: "lower", Source: "self", Moves: "trust in live-ladder latencies"},
	{Name: "benchmark.span_cost_ns", Unit: "ns", Better: "lower", Source: "self", Moves: "benchmark.trace_overhead_share"},
	{Name: "benchmark.trace_overhead_share", Unit: "ratio", Better: "lower", Source: "self", Moves: "trust in span times"},
	{Name: "benchmark.span_coverage_share", Unit: "ratio", Better: "higher", Source: "self", Moves: "trust in the attribution"},
	{Name: "benchmark.traced_op_ms", Unit: "ms", Better: "lower", Source: "self", Moves: "compare with the untraced operation"},
	{Name: "benchmark.spin_ms", Unit: "ms", Better: "lower", Source: "self", Moves: "trust in the machine"},
}
