package omp

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/interweaving/komp/internal/places"
)

// The ICVs the cross-variable diagnostics name as well as parse.
const (
	envMaxActiveLevels = "OMP_MAX_ACTIVE_LEVELS"
	envProcBind        = "OMP_PROC_BIND"
	envCancellation    = "OMP_CANCELLATION"
	envRegionDeadline  = "KOMP_REGION_DEADLINE"
)

// icvs is the one declaration of every environment-settable ICV: its
// variable name and how a value lands in Options. A setter writes
// nothing when it rejects the value. The superseded algorithms
// (BarrierAlgo, TaskDeque, CancelProp, StealOrder) have no row: they are
// reference implementations the ablations and differential tests select
// programmatically.
var icvs = []struct {
	name string
	set  func(o *Options, v string) error
}{
	{"OMP_NUM_THREADS", setNumThreads},
	{envMaxActiveLevels, intAtLeast(1, func(o *Options) *int { return &o.MaxActiveLevels })},
	{"KOMP_NESTED_POOL", setNestedPool},
	{"OMP_SCHEDULE", func(o *Options, v string) error {
		kind, chunk, err := ParseSchedule(v)
		if err != nil {
			return err
		}
		o.Schedule, o.Chunk = kind, chunk
		return nil
	}},
	{"KOMP_TASK_CUTOFF", intAtLeast(0, func(o *Options) *int { return &o.TaskCutoff })},
	{"KOMP_TASK_STEAL_TRIES", intAtLeast(0, func(o *Options) *int { return &o.TaskStealTries })},
	{"OMP_PLACES", func(o *Options, v string) error {
		// The real topology is not known until New; validate the grammar
		// here against an effectively unbounded flat topology so spec
		// errors surface as errors, not as a panic later.
		if _, err := places.Parse(v, places.Flat(1<<20)); err != nil {
			return err
		}
		o.PlacesSpec = v
		return nil
	}},
	{envProcBind, setProcBind},
	{envCancellation, boolean(func(o *Options) *bool { return &o.Cancellation })},
	{"KOMP_RESILIENT", boolean(func(o *Options) *bool { return &o.Resilient })},
	{"OMP_DEFAULT_DEVICE", func(o *Options, v string) error {
		n, err := strconv.Atoi(strings.TrimSpace(v))
		if err != nil {
			return errors.New("want an integer (negative for host fallback)")
		}
		o.DefaultDevice = n
		return nil
	}},
	{"KOMP_DEVICE", setDeviceGeometry},
	{envRegionDeadline, func(o *Options, v string) error {
		d, err := time.ParseDuration(strings.TrimSpace(v))
		if err != nil || d < 0 {
			return errors.New("want a non-negative duration (e.g. 50ms)")
		}
		o.RegionDeadlineNS = int64(d)
		return nil
	}},
}

// intAtLeast is the setter of an integer ICV bounded below by min.
func intAtLeast(min int, field func(*Options) *int) func(*Options, string) error {
	return func(o *Options, v string) error {
		n, err := strconv.Atoi(strings.TrimSpace(v))
		if err != nil || n < min {
			return fmt.Errorf("want an integer >= %d", min)
		}
		*field(o) = n
		return nil
	}
}

// boolean is the setter of a true/false ICV.
func boolean(field func(*Options) *bool) func(*Options, string) error {
	return func(o *Options, v string) error {
		b, err := strconv.ParseBool(strings.TrimSpace(strings.ToLower(v)))
		if err != nil {
			return errors.New("want true or false")
		}
		*field(o) = b
		return nil
	}
}

func setNumThreads(o *Options, v string) error {
	parts := strings.Split(v, ",")
	list := make([]int, len(parts))
	for i, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		// A lone value keeps its historic semantics — any integer, New
		// clamps non-positive ones to the default. A comma list sizes
		// the nesting levels (OpenMP 5.x), so every entry is positive.
		if err != nil || (len(parts) > 1 && n < 1) {
			return fmt.Errorf("entry %d: want an integer (positive, in a list)", i+1)
		}
		list[i] = n
	}
	o.DefaultThreads = list[0]
	if len(list) > 1 {
		o.NumThreadsList = list
	}
	return nil
}

func setNestedPool(o *Options, v string) error {
	switch strings.TrimSpace(strings.ToLower(v)) {
	case "", "hold":
		o.NestedPool = NestedPoolHold
	case "return":
		o.NestedPool = NestedPoolReturn
	default:
		return errors.New("want hold or return")
	}
	return nil
}

func setProcBind(o *Options, v string) error {
	list, err := places.ParseBindList(v)
	if err != nil {
		return err
	}
	o.ProcBind = list[0]
	if len(list) > 1 {
		o.ProcBindList = list
	}
	if list[0] != places.BindFalse {
		o.Bind = true
	}
	return nil
}

// Env reads the OpenMP environment variables of the icvs table from a
// lookup function (kernel env vars in RTK, the emulated process
// environment in PIK) into Options. It stops at the first rejected
// value; the rejecting setter has written nothing.
func (o *Options) Env(lookup func(string) (string, bool)) error {
	for _, icv := range icvs {
		if v, ok := lookup(icv.name); ok {
			if err := icv.set(o, v); err != nil {
				return fmt.Errorf("omp: %s=%q: %w", icv.name, v, err)
			}
		}
	}
	// Cross-variable diagnostics: settings that are individually valid
	// but leave another one silently inert.
	maxLvl := o.MaxActiveLevels
	if maxLvl <= 0 {
		maxLvl = 1
	}
	if len(o.ProcBindList) > maxLvl {
		o.Warnings = append(o.Warnings, fmt.Sprintf(
			"omp: %s lists %d levels but %s=%d: entries past level %d will never apply",
			envProcBind, len(o.ProcBindList), envMaxActiveLevels, maxLvl, maxLvl))
	}
	if o.RegionDeadlineNS > 0 && !o.Cancellation {
		o.Warnings = append(o.Warnings, fmt.Sprintf(
			"omp: %s=%v has no effect unless %s=true: a region deadline fires as a cancellation",
			envRegionDeadline, time.Duration(o.RegionDeadlineNS), envCancellation))
	}
	return nil
}
