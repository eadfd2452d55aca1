// The workload registry: benchmark code → constructor plus the metadata
// that used to be scattered switches (the paper's rank count per code, and
// which codes carry a §5.3 source-instrumented "internal" variant). The
// dvsd service and every CLI binary select workloads through one shared
// parse form, Spec — adding a benchmark is one Register call.
package npb

import (
	"sort"
	"strings"
	"sync"

	"repro/internal/dvs"
	"repro/internal/mpisim"
	"repro/internal/spec"
)

// InternalBuilder constructs a source-instrumented variant of a benchmark
// with the paper's two-speed internal scheduling (§5.3).
type InternalBuilder func(class Class, ranks int, high, low dvs.MHz) (Workload, error)

// Entry is one registered benchmark: its constructor plus the
// variant-aware metadata the wire and CLI decoders need.
type Entry struct {
	// Code is the benchmark name ("FT", "CG", ...), case-sensitive.
	Code string
	// Build constructs the plain benchmark.
	Build Builder
	// PaperRanks is the rank count the paper ran this code with.
	PaperRanks int
	// Internal constructs the §5.3 source-instrumented variant; nil when
	// the paper instrumented no such variant for this code.
	Internal InternalBuilder
}

var (
	regMu   sync.RWMutex
	entries = map[string]Entry{}
)

// Register adds a benchmark to the registry. It panics on an incomplete
// entry or duplicate code — registration is an init-time act.
func Register(e Entry) {
	if e.Code == "" || e.Build == nil || e.PaperRanks <= 0 {
		panic("npb: incomplete workload registration: " + e.Code)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, ok := entries[e.Code]; ok {
		panic("npb: benchmark " + e.Code + " already registered")
	}
	entries[e.Code] = e
}

// Lookup returns the registration for a benchmark code.
func Lookup(code string) (Entry, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	e, ok := entries[code]
	return e, ok
}

// Codes returns the registered benchmark names, sorted.
func Codes() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(entries))
	for c := range entries {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// InternalCodes returns the codes with a §5.3 internal variant, sorted.
func InternalCodes() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	var out []string
	for c, e := range entries {
		if e.Internal != nil {
			out = append(out, c)
		}
	}
	sort.Strings(out)
	return out
}

// Spec is the shared parse form of a workload selection: the JSON wire
// fields of the dvsd service and the flag set of the CLI binaries both
// compile to it. Zero values select the paper's defaults. Build rejects
// invalid fields with a *spec.Error naming the offending parameter
// relative to the workload object ("code", "class", ...).
type Spec struct {
	// Code is the benchmark name (required; see Codes).
	Code string
	// Class is the NPB problem class letter (S, W, A, B, C); "" = C, the
	// paper's size.
	Class string
	// Ranks is the MPI world size; 0 = the paper's count for the code.
	Ranks int
	// Variant selects an instrumented build: "" for plain, "internal" for
	// the §5.3 source-instrumented variants.
	Variant string
	// HighMHz/LowMHz are the internal variant's two speeds; 0 = the
	// paper's Figure 10 settings (1400/600).
	HighMHz float64
	LowMHz  float64
}

// Build compiles the spec into a runnable workload through the registry.
func (s Spec) Build() (Workload, error) {
	if s.Code == "" {
		return Workload{}, spec.Errorf("code", "required; one of %s", strings.Join(Codes(), ", "))
	}
	e, ok := Lookup(s.Code)
	if !ok {
		return Workload{}, spec.Errorf("code", "unknown benchmark %q; one of %s",
			s.Code, strings.Join(Codes(), ", "))
	}
	class := ClassC
	if s.Class != "" {
		if len(s.Class) != 1 || !Class(s.Class[0]).Valid() {
			return Workload{}, spec.Errorf("class",
				"%q is not a class; want a single letter among S, W, A, B, C", s.Class)
		}
		class = Class(s.Class[0])
	}
	ranks := s.Ranks
	if ranks == 0 {
		ranks = e.PaperRanks
	}
	if ranks < 0 {
		return Workload{}, spec.Errorf("ranks", "must be positive, got %d", ranks)
	}
	if ranks > mpisim.MaxRanks {
		return Workload{}, spec.Errorf("ranks", "at most %d, got %d", mpisim.MaxRanks, ranks)
	}
	high, low := dvs.MHz(s.HighMHz), dvs.MHz(s.LowMHz)
	if high == 0 {
		high = 1400
	}
	if low == 0 {
		low = 600
	}
	var (
		w   Workload
		err error
	)
	switch s.Variant {
	case "":
		w, err = e.Build(class, ranks)
	case "internal":
		if e.Internal == nil {
			return Workload{}, spec.Errorf("variant",
				"internal instrumentation exists only for %s, not %s",
				strings.Join(InternalCodes(), " and "), s.Code)
		}
		w, err = e.Internal(class, ranks, high, low)
	default:
		return Workload{}, spec.Errorf("variant", "unknown variant %q; want \"\" or \"internal\"", s.Variant)
	}
	if err != nil {
		return Workload{}, spec.Errorf("", "%v", err)
	}
	return w, nil
}
