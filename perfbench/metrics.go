package main

// metricDef names one metric and its unit; BENCHMARK.json lists the same
// names and units (checked by TestCatalogMatchesBenchmarkJSON).
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a user of the system sees, printed by untraced
// runs. Every workload reports every one; see README.md for how each is
// measured on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"train_tokens_per_s", "tokens/s", "higher"},
	{"final_val_loss", "nats", "lower"},
	{"opt_state_mb", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"serve_p50_ms", "ms", "lower"},
	{"serve_p99_ms", "ms", "lower"},
	{"serve_goodput_qps", "1/s", "higher"},
}

// perLayer are the single-layer metrics, printed by traced runs.
var perLayer = []metricDef{
	{"runtime.matmul_gflops", "GFLOP/s", "higher"},
	{"runtime.matmul_gflop_per_step", "GFLOP", "lower"},
	{"runtime.pool_tasks_per_step", "count", "lower"},
	{"nn.embed_ms", "ms", "lower"},
	{"nn.norm_ms", "ms", "lower"},
	{"nn.attn_fwd_ms", "ms", "lower"},
	{"nn.attn_bwd_ms", "ms", "lower"},
	{"nn.mlp_fwd_ms", "ms", "lower"},
	{"nn.mlp_bwd_ms", "ms", "lower"},
	{"nn.head_fwd_ms", "ms", "lower"},
	{"nn.head_bwd_ms", "ms", "lower"},
	{"nn.loss_ms", "ms", "lower"},
	{"optim.step_ms_p50", "ms", "lower"},
	{"optim.step_ms_max", "ms", "lower"},
	{"optim.allocs_per_step", "count", "lower"},
	{"optim.alloc_kb_per_step", "KB", "lower"},
	{"train.fwd_bwd_ms", "ms", "lower"},
	{"train.replica_busy_frac", "fraction", "higher"},
	{"train.allreduce_ms", "ms", "lower"},
	{"train.shard_step_ms", "ms", "lower"},
	{"train.broadcast_ms", "ms", "lower"},
	{"train.eval_ms", "ms", "lower"},
	{"train.allreduce_mb_per_step", "MB", "lower"},
	{"train.broadcast_mb_per_step", "MB", "lower"},
	{"mem.dp_grad_leaves_mb", "MB", "lower"},
	{"mem.dp_replicas_mb", "MB", "lower"},
	{"ckpt.save_ms", "ms", "lower"},
	{"ckpt.save_mb_s", "MB/s", "higher"},
	{"ckpt.bytes", "bytes", "lower"},
	{"ckpt.load_ms", "ms", "lower"},
	{"serve.handler_ms_p50", "ms", "lower"},
	{"serve.handler_ms_p99", "ms", "lower"},
	{"serve.queue_wait_ms_mean", "ms", "lower"},
	{"serve.batch_size_mean", "count", "higher"},
	{"serve.cache_hit_ratio", "fraction", "higher"},
	{"serve.shed_ratio", "fraction", "lower"},
	{"serve.reloads", "count", "higher"},
	{"serve.reload_lag_ms", "ms", "lower"},
	{"trace.overhead_frac", "fraction", "lower"},
	{"go.alloc_mb_per_step", "MB", "lower"},
	{"go.gc_cycles", "count", "lower"},
}

func unitOf(name string) string {
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range set {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}
