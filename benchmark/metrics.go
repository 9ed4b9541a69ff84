package main

// A metricDef names one reported metric. This table is the benchmark's
// side of BENCHMARK.json; a test holds the two together.
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEndDefs are printed by every untraced run of every workload.
// What an "op" is, and so what each name means, depends on the workload
// (README.md, "End-to-end metrics").
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_latency_ms_p50", "ms", "lower", 0.25},
	{"op_latency_ms_p90", "ms", "lower", 0.25},
	{"quality_ratio", "ratio", "higher", 0.02},
	{"io_kb_per_op", "kB", "lower", 0.03},
	{"alloc_kb_per_op", "kB", "lower", 0.05},
	{"peak_rss_mb", "MB", "lower", 0.10},
}

// perLayerDefs are printed by every traced run; a workload reports 0
// for a layer it does not exercise.
var perLayerDefs = []metricDef{
	// fleet_shards and mesh_sequenced: wrapped prober and sink.
	{"simprobe.busy_share", "ratio", "higher", 0},
	{"simprobe.send_stream_us_p50", "us", "lower", 0},
	{"simprobe.send_stream_us_p99", "us", "lower", 0},
	{"simprobe.streams_per_round", "count", "lower", 0},
	{"simprobe.sequencer_efficiency", "ratio", "higher", 0},
	{"simprobe.mean_parked_sessions", "count", "lower", 0},
	{"netsim.events_per_s", "1/s", "higher", 0},
	{"netsim.events_per_path_round", "count", "lower", 0},
	{"netsim.bare_events_per_s", "1/s", "higher", 0},
	{"monitor.self_share", "ratio", "lower", 0},
	{"run.fleets_per_round", "count", "lower", 0},
	{"run.grey_ratio", "ratio", "lower", 0},
	{"run.hit_limit_ratio", "ratio", "lower", 0},
	{"tsstore.observe_first_us_p50", "us", "lower", 0},
	{"tsstore.observe_us_p50", "us", "lower", 0},
	{"mesh.link_snapshot_us_p50", "us", "lower", 0},
	// store_pipeline: call-site spans.
	{"tsstore.ingest_us_per_sample_p50", "us", "lower", 0},
	{"tsstore.ingest_us_per_sample_p90", "us", "lower", 0},
	{"tsstore.observe_mem_ns", "ns", "lower", 0},
	{"archive.append_us_p50", "us", "lower", 0},
	{"tsstore.write_prometheus_us_per_path", "us", "lower", 0},
	{"tsstore.scrape_bytes", "count", "lower", 0},
	{"tsstore.federation_push_us_p50", "us", "lower", 0},
	{"tsstore.federation_snapshot_ms_p50", "ms", "lower", 0},
	{"tsstore.fed_scrape_ms_p50", "ms", "lower", 0},
	{"archive.seal_ms_p50", "ms", "lower", 0},
	{"archive.recovery_s", "s", "lower", 0},
	{"archive.open_store_records_per_s", "1/s", "higher", 0},
	{"archive.verify_s", "s", "lower", 0},
	{"archive.bytes_per_record", "count", "lower", 0},
	{"archive.append_sync_us_p50", "us", "lower", 0},
	// udp_loopback.
	{"udprobe.owd_noise_us_p50", "us", "lower", 0},
	{"udprobe.owd_noise_us_p99", "us", "lower", 0},
	{"udprobe.clean_stream_ratio", "ratio", "higher", 0},
	{"udprobe.flagged_ratio", "ratio", "lower", 0},
	{"udprobe.loss_ppm", "ppm", "lower", 0},
	{"udprobe.stream_overhead_ms_p50", "ms", "lower", 0},
	// Micro-probes, each on the workloads whose layers it isolates.
	{"eventq.schedule_fire_ns", "ns", "lower", 0},
	{"netsim.forward_events_per_s", "1/s", "higher", 0},
	{"netsim.forward_allocs_per_event", "count", "lower", 0},
	{"netsim.lockstep_events_per_s_w1", "1/s", "higher", 0},
	{"netsim.lockstep_events_per_s_w2", "1/s", "higher", 0},
	{"core.classify_owds_ns", "ns", "lower", 0},
	{"wire.marshal_probe_ns", "ns", "lower", 0},
	{"wire.unmarshal_probe_ns", "ns", "lower", 0},
	{"wire.marshal_probe_allocs", "count", "lower", 0},
	// Every workload.
	{"trace_overhead_ratio", "ratio", "higher", 0},
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	return out
}

func endToEndNames() []string { return names(endToEndDefs) }
func perLayerNames() []string { return names(perLayerDefs) }

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEndDefs, perLayerDefs} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("benchmark: metric " + name + " is not in the catalogue")
}
