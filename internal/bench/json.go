package bench

import (
	"encoding/json"
	"io"
)

// Record is one machine-readable measurement row. EPCC rows carry the
// per-directive overhead (MedianNS/SDNS); NAS rows carry whole-benchmark
// Seconds. The schema is documented in EXPERIMENTS.md.
type Record struct {
	// Figure is the figure or ablation id the row came from (fig7, ...).
	Figure string `json:"figure"`
	// Suite is the EPCC suite (ARRAY, SCHEDULE, SYNCH, TASK); empty for
	// NAS rows.
	Suite string `json:"suite,omitempty"`
	// Construct names the measured construct: the EPCC benchmark name
	// (BARRIER, REDUCTION, ...) or the NAS benchmark (MG-C, ...).
	Construct string `json:"construct"`
	// Schedule is the loop schedule for SCHEDULE-suite rows (STATIC_2,
	// DYNAMIC_8, ...); empty otherwise.
	Schedule string `json:"schedule,omitempty"`
	// Env is the execution environment (linux-omp, rtk, pik, ...).
	Env string `json:"env"`
	// Cores is the team size / worker count of the measurement.
	Cores int `json:"cores"`
	// MedianNS is the median per-directive overhead in nanoseconds
	// (EPCC rows); SDNS its standard deviation.
	MedianNS float64 `json:"median_ns,omitempty"`
	SDNS     float64 `json:"sd_ns,omitempty"`
	// Seconds is the modeled whole-benchmark time (NAS rows).
	Seconds float64 `json:"seconds,omitempty"`
	// Deque, StealFanout and Cutoff identify a tasking-ablation cell:
	// the deque algorithm (chase-lev, mutex), the per-sweep steal fanout
	// (0 = all teammates) and the queue-depth cutoff (0 = off).
	Deque       string `json:"deque,omitempty"`
	StealFanout int    `json:"steal_fanout,omitempty"`
	Cutoff      int    `json:"cutoff,omitempty"`
	// TasksPerMS is the tasking-ablation throughput; Steals and Cutoffs
	// are the run's total steal and cutoff-serialization counts.
	TasksPerMS float64 `json:"tasks_per_ms,omitempty"`
	Steals     int64   `json:"steals,omitempty"`
	Cutoffs    int64   `json:"cutoffs,omitempty"`
	// Bind and Places identify an affinity-ablation cell: the
	// OMP_PROC_BIND policy and the OMP_PLACES spec the team ran under.
	Bind   string `json:"bind,omitempty"`
	Places string `json:"places,omitempty"`
	// LocalFrac is the fraction of an affinity-ablation run's memory
	// accesses (or steals) that stayed NUMA-local; LocalSteals and
	// RemoteSteals split the run's task steals by whether thief and
	// victim shared a socket.
	LocalFrac    float64 `json:"local_frac,omitempty"`
	LocalSteals  int64   `json:"local_steals,omitempty"`
	RemoteSteals int64   `json:"remote_steals,omitempty"`
	// CancelLatencyNS is the cancel-ablation propagation latency: virtual
	// ns from the Cancel call until the last teammate observed it at a
	// cancellation point. Cancelled marks a fault-composed row whose
	// region was cut short (by the deadline or an explicit cancel), and
	// DeadlineNS is the KOMP_REGION_DEADLINE armed for that row (0 = none).
	CancelLatencyNS int64 `json:"cancel_latency_ns,omitempty"`
	Cancelled       bool  `json:"cancelled,omitempty"`
	DeadlineNS      int64 `json:"deadline_ns,omitempty"`
	// MaxActiveLevels, OuterTeam and InnerTeam identify a
	// nested-ablation cell: the OMP_MAX_ACTIVE_LEVELS cap (1 =
	// serialized baseline) and the two team widths; NestedPool is the
	// KOMP_NESTED_POOL lease policy (hold, return) of fork/join rows.
	MaxActiveLevels int    `json:"max_active_levels,omitempty"`
	OuterTeam       int    `json:"outer_team,omitempty"`
	InnerTeam       int    `json:"inner_team,omitempty"`
	NestedPool      string `json:"nested_pool,omitempty"`
	// Tenants, QDepth, P50NS, P99NS and Rejected describe a
	// tenancy-ablation cell: the concurrent tenant count, the admission
	// queue depth (KOMP_TENANCY_QUEUE), the open-loop region-latency
	// percentiles (virtual ns from scheduled arrival to join), and the
	// submissions shed by backpressure.
	Tenants  int   `json:"tenants,omitempty"`
	QDepth   int   `json:"qdepth,omitempty"`
	P50NS    int64 `json:"p50_ns,omitempty"`
	P99NS    int64 `json:"p99_ns,omitempty"`
	Rejected int64 `json:"rejected,omitempty"`
	// DeviceCUs and DeviceLanes identify an offload-ablation cell's
	// accelerator geometry; BytesH2D and BytesD2H are the run's
	// host-to-device and device-to-host map traffic.
	DeviceCUs   int   `json:"device_cus,omitempty"`
	DeviceLanes int   `json:"device_lanes,omitempty"`
	BytesH2D    int64 `json:"bytes_h2d,omitempty"`
	BytesD2H    int64 `json:"bytes_d2h,omitempty"`
}

// Recorder accumulates Records alongside a figure run. All methods are
// nil-receiver safe so figure code can Add unconditionally; recording
// happens only when the caller (kompbench -json) hangs a Recorder on
// Options.
type Recorder struct {
	Records []Record
}

// Add appends one record; a nil Recorder drops it.
func (r *Recorder) Add(rec Record) {
	if r == nil {
		return
	}
	r.Records = append(r.Records, rec)
}

// WriteJSON emits the accumulated records as an indented JSON array.
func (r *Recorder) WriteJSON(w io.Writer) error {
	recs := []Record{}
	if r != nil {
		recs = r.Records
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(recs)
}
