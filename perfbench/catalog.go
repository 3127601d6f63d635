package main

// metricDef declares one reported metric; BENCHMARK.json lists the same
// names, units and directions.
type metricDef struct{ name, unit, better string }

var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher"},
	{"write_p50_us", "us", "lower"},
	{"read_p50_us", "us", "lower"},
	{"cpu_us_per_op", "us", "lower"},
	{"restart_s", "s", "lower"},
	{"log_bytes_per_user_byte", "B/B", "lower"},
	{"io_bytes_per_user_byte", "B/B", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer comes from the traced run.  The two tail latencies are
// end-to-end quantities, but on a shared host their run-to-run spread is
// wider than any bound the end-to-end list may carry, so they are
// reported here, unbounded, from the traced window.
var perLayer = []metricDef{
	{"write_p99_us", "us", "lower"},
	{"read_p99_us", "us", "lower"},
	{"wal.forces_per_op", "1/op", "lower"},
	{"wal.force_p50_us", "us", "lower"},
	{"wal.force_batch_mean", "count", "higher"},
	{"wal.log_bytes_per_op", "B/op", "lower"},
	{"wal.intra_saved_per_op", "B/op", "higher"},
	{"wal.inter_saved_per_op", "B/op", "higher"},
	{"core.commit.flush_p50_us", "us", "lower"},
	{"core.commit.flush_p99_us", "us", "lower"},
	{"core.commit.phase.lock_wait_p50_us", "us", "lower"},
	{"core.commit.phase.encode_p50_us", "us", "lower"},
	{"core.commit.phase.pipe_wait_p50_us", "us", "lower"},
	{"core.commit.phase.append_p50_us", "us", "lower"},
	{"core.commit.phase.force_wait_p50_us", "us", "lower"},
	{"core.commit.noflush_p50_ns", "ns", "lower"},
	{"core.flush_p50_us", "us", "lower"},
	{"core.setrange_p50_ns", "ns", "lower"},
	{"core.map_ms", "ms", "lower"},
	{"core.truncate.pause_ms_per_s", "ms/s", "lower"},
	{"core.truncate.pause_p99_ms", "ms", "lower"},
	{"core.truncate.epochs_per_log_mb", "1/MB", "lower"},
	{"segment.write_bytes_per_op", "B/op", "lower"},
	{"recovery.scan_ms", "ms", "lower"},
	{"recovery.apply_ms", "ms", "lower"},
	{"recovery.scanned_mb", "MB", "lower"},
	{"recovery.applied_per_scanned", "ratio", "higher"},
	{"itree.insert_ns_per_op", "ns", "lower"},
	{"itree.insert_p99_us", "us", "lower"},
	{"itree.intervals_per_insert", "ratio", "lower"},
	{"rbtree.get_p50_ns", "ns", "lower"},
	{"rbtree.put_p50_ns", "ns", "lower"},
	{"rbtree.self_share", "ratio", "lower"},
	{"rds.alloc_p50_ns", "ns", "lower"},
	{"rds.free_p50_ns", "ns", "lower"},
	{"rds.self_share", "ratio", "lower"},
	{"rvmlock.acquire_p50_ns", "ns", "lower"},
	{"rvmlock.wait_share", "ratio", "lower"},
	{"rvmlock.self_share", "ratio", "lower"},
	{"core.self_share", "ratio", "lower"},
	{"proc.alloc_bytes_per_op", "B/op", "lower"},
	{"proc.gc_per_kop", "1/kop", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// complete makes ms report exactly the declared metrics: one a workload
// did not measure is reported as 0 (the layer was not exercised: no
// rbtree on tpca, no forward commits during a restart).
func (ms metrics) complete(defs []metricDef) {
	declared := map[string]bool{}
	for _, d := range defs {
		declared[d.name] = true
		if _, ok := ms[d.name]; !ok {
			ms.set(d.name, d.unit, 0)
		}
	}
	for n := range ms {
		if !declared[n] {
			delete(ms, n)
		}
	}
}
