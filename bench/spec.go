package main

// The common data set of the five query workloads: the universe, curve,
// record count and shard count every daemon of the benchmark is built with.
// Page size (64) and decomposition cache (1024 entries) are the program's
// defaults and are left alone.
const (
	dataD       = 2
	dataK       = 10
	dataCurve   = "hilbert"
	dataRecords = 400_000
	dataShards  = 4
)

// front is the door a workload's operations enter through.
type front int

const (
	frontBinary  front = iota // buffered Client.QueryBox over BinaryTransport
	frontJSON                 // buffered Client.QueryBox over JSONTransport
	frontStream               // Client.QueryBoxStream drained batch by batch
	frontRouter               // cluster.Router.Query over three members
	frontDurable              // Client.Put and Client.QueryBox on a durable daemon
	frontSweep                // core.NNStretchResult; no storage or network
)

// workloadSpec fixes one workload. Operation counts are rate × -seconds, so
// a given -seconds always runs the same operations; the rates put the timed
// pass near -seconds on the host the benchmark was sized on (2 cores).
// durable_mixed alone runs about four times -seconds: two clients waiting on
// the same journal fall in and out of step for seconds at a time, and it
// takes some twenty memtable flushes and six compactions per shard for the
// share of each to settle.
type workloadSpec struct {
	name  string
	why   string
	front front
	// rate is timed operations per second of -seconds; for frontSweep it
	// is passes over the curve × grid list.
	rate float64
	// boxes distinct boxes with sides in [minSide, maxSide] per axis,
	// drawn with zipf exponent zipf, or uniformly when zipf is 0.
	boxes, minSide, maxSide int
	zipf                    float64
	// putShare is the probability that an operation is a put.
	putShare float64
}

var workloads = []workloadSpec{
	{
		name: "hot_small_binary", front: frontBinary, rate: 50_000,
		boxes: 512, minSide: 1, maxSide: 16, zipf: 1.2,
		why: "small zipf-hot boxes over the binary door: store and query do almost nothing, so client, wire, server and socket cost is what moves",
	},
	{
		name: "hot_small_json", front: frontJSON, rate: 18_750,
		boxes: 512, minSide: 1, maxSide: 16, zipf: 1.2,
		why: "the same trace over HTTP/JSON: the second front door, which uses the server differently (net/http and the JSON codec)",
	},
	{
		name: "scan_large_stream", front: frontStream, rate: 1_250,
		boxes: 4096, minSide: 64, maxSide: 256,
		why: "large streamed boxes, working set 4x the decomposition cache: decompose, page reads and the shard merge do the work; where curve choice shows",
	},
	{
		name: "routed_mid", front: frontRouter, rate: 5_000,
		boxes: 2048, minSide: 8, maxSide: 96,
		why: "mid-size boxes through the 3-member router: isolates scatter-gather fan-out, merge and the extra member hop",
	},
	{
		name: "durable_mixed", front: frontDurable, rate: 20_000,
		boxes: 512, minSide: 1, maxSide: 16, putShare: 0.5,
		why: "half puts, half small queries on a durable daemon: WAL syncs, flushes and compactions beside reads; shows a read/write/space trade",
	},
	{
		name: "stretch_sweep", front: frontSweep, rate: 0.75,
		why: "the paper's nearest-neighbour stretch engine over five curves: curve kernels and parallel only; the bypass for every serving-path change",
	},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// sweepCurves and sweepGrids are what one pass of stretch_sweep covers.
var (
	sweepCurves = []string{"z", "simple", "snake", "gray", "hilbert"}
	sweepGrids  = [][2]int{{2, 11}, {3, 7}}
)

// metricDef names one metric, its unit and which way is better.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the baseline's median by which an end-to-end
	// metric may get worse before -compare reports a regression; per-layer
	// metrics have none.
	bound float64
	// everywhere marks an end-to-end metric that is defined, and never 0,
	// on all six workloads. Only those are declared in BENCHMARK.json,
	// whose contract wants every declared metric from every workload; the
	// others are printed and compared where they apply.
	everywhere bool
}

// endToEnd lists what a user of the stack sees, measured with tracing off.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.15, everywhere: true},
	{name: "ops_per_s", unit: "ops/s", better: "higher", bound: 0.10, everywhere: true},
	{name: "records_per_s", unit: "records/s", better: "higher", bound: 0.10},
	{name: "lat_p50_us", unit: "us", better: "lower", bound: 0.10, everywhere: true},
	{name: "lat_p99_us", unit: "us", better: "lower", bound: 0.15, everywhere: true},
	{name: "ttfb_p50_us", unit: "us", better: "lower", bound: 0.10, everywhere: true},
	{name: "put_p50_us", unit: "us", better: "lower", bound: 0.15},
	{name: "put_p99_us", unit: "us", better: "lower", bound: 0.15},
	{name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.15, everywhere: true},
	{name: "fail_rate", unit: "ratio", better: "lower", bound: 0},
}

// perLayer lists the traced run's metrics, in ladder order.
var perLayer = []metricDef{
	{name: "curve.index_ns_per_key", unit: "ns", better: "lower"},
	{name: "curve.nn_sweep_ns_per_cell.z", unit: "ns", better: "lower"},
	{name: "curve.nn_sweep_ns_per_cell.simple", unit: "ns", better: "lower"},
	{name: "curve.nn_sweep_ns_per_cell.snake", unit: "ns", better: "lower"},
	{name: "curve.nn_sweep_ns_per_cell.gray", unit: "ns", better: "lower"},
	{name: "curve.nn_sweep_ns_per_cell.hilbert", unit: "ns", better: "lower"},
	{name: "query.decompose_us_per_op", unit: "us", better: "lower"},
	{name: "query.intervals_per_op", unit: "count", better: "lower"},
	{name: "store.scan_us_per_op", unit: "us", better: "lower"},
	{name: "store.leaf_pages_per_op", unit: "count", better: "lower"},
	{name: "store.useful_record_ratio", unit: "ratio", better: "higher"},
	{name: "store.bulkload_s", unit: "s", better: "lower"},
	{name: "store.flushes", unit: "count", better: "lower"},
	{name: "store.compactions", unit: "count", better: "lower"},
	{name: "store.runs_final", unit: "count", better: "lower"},
	{name: "store.disk_bytes_per_user_byte", unit: "ratio", better: "lower"},
	{name: "wal.syncs_per_put", unit: "count", better: "lower"},
	{name: "wal.bytes_per_put", unit: "B", better: "lower"},
	{name: "wal.sync_us_p50", unit: "us", better: "lower"},
	{name: "service.range_us_per_op", unit: "us", better: "lower"},
	{name: "service.overhead_us_per_op", unit: "us", better: "lower"},
	{name: "service.cache_hit_rate", unit: "ratio", better: "higher"},
	{name: "service.coalesce_rate", unit: "ratio", better: "higher"},
	{name: "service.pages_per_op", unit: "count", better: "lower"},
	{name: "service.records_per_op", unit: "count", better: "higher"},
	{name: "service.put_us_per_op", unit: "us", better: "lower"},
	{name: "wire.encode_ns_per_record", unit: "ns", better: "lower"},
	{name: "wire.decode_ns_per_record", unit: "ns", better: "lower"},
	{name: "wire.bytes_per_record", unit: "B", better: "lower"},
	{name: "server.hop_us_per_op", unit: "us", better: "lower"},
	{name: "server.shed_rate", unit: "ratio", better: "lower"},
	{name: "client.query_us_per_op", unit: "us", better: "lower"},
	{name: "client.first_batch_us_per_op", unit: "us", better: "lower"},
	{name: "client.retries_per_op", unit: "ratio", better: "lower"},
	{name: "cluster.query_us_per_op", unit: "us", better: "lower"},
	{name: "cluster.slowest_leg_us_per_op", unit: "us", better: "lower"},
	{name: "cluster.legs_per_op", unit: "count", better: "lower"},
	{name: "cluster.hop_us_per_op", unit: "us", better: "lower"},
	{name: "cluster.hedges_per_op", unit: "ratio", better: "lower"},
	{name: "cluster.failovers_per_op", unit: "ratio", better: "lower"},
	{name: "trace.unexplained_us_per_op", unit: "us", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
}

// exactCounts lists the per-layer metrics of a workload that must repeat
// digit for digit when its traced run is repeated with the same seed. A
// workload that writes leaves service.pages_per_op out: how many runs a
// query reads there depends on whether the store's background compaction
// has finished, and that is a race.
func exactCounts(spec workloadSpec) []string {
	names := []string{
		"query.intervals_per_op",
		"store.leaf_pages_per_op",
		"service.records_per_op",
		"wire.bytes_per_record",
	}
	if spec.putShare == 0 {
		names = append(names, "service.pages_per_op")
	}
	return names
}

func defByName(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
