package sim

import (
	"fmt"
	"sort"
	"strings"

	"dkip/internal/core"
	"dkip/internal/inorder"
	"dkip/internal/ooo"
	"dkip/internal/predictor"
	"dkip/internal/sample"
)

// archDesc is one registered simulation engine: everything the orchestration
// layer needs to normalize, hash, validate, and construct a RunSpec's
// machine, with no per-arch switch statements anywhere else. Registering a
// fourth architecture means adding a config field to RunSpec and one entry
// here.
type archDesc struct {
	arch Arch
	name string
	// ckptFamily prefixes architectural-checkpoint content keys. Families
	// whose checkpoints have identical structure share a value: the D-KIP
	// ("core") carries a confidence-estimator section the others lack,
	// while the out-of-order and in-order cores both snapshot only caches
	// and predictor and therefore share "ooo" (the memory and predictor
	// configuration are hashed separately, so sharing the family never
	// conflates different state).
	ckptFamily string
	// normalize applies configuration defaults and zeroes every other
	// engine's config so equivalent specs encode identically.
	normalize func(s *RunSpec)
	// config returns the spec's engine configuration: normalized for
	// content hashing, raw for the opaque function-field scan.
	config func(s *RunSpec) interface{}
	// configName returns the normalized configuration's display name.
	configName func(s *RunSpec) string
	// validate checks the normalized engine configuration.
	validate func(s *RunSpec) error
	// window estimates the machine's in-flight instruction capacity for
	// sampling-plan completion (from the normalized spec).
	window func(s *RunSpec) uint64
	// predictor returns the normalized predictor constructor; memConfig
	// the normalized memory configuration (both feed checkpoint keys).
	predictor func(s *RunSpec) func() predictor.Predictor
	memConfig func(s *RunSpec) interface{}
	// newEngine constructs the machine.
	newEngine func(s *RunSpec) sample.Engine
}

var oooDesc = &archDesc{
	arch:       ArchOOO,
	name:       "ooo",
	ckptFamily: "ooo",
	normalize: func(s *RunSpec) {
		s.OOO = s.OOO.WithDefaults()
		s.OOO.Mem = s.OOO.Mem.WithDefaults()
		s.DKIP = core.Config{}
		s.Inorder = inorder.Config{}
	},
	config:     func(s *RunSpec) interface{} { return s.OOO },
	configName: func(s *RunSpec) string { return s.OOO.Name },
	validate:   func(s *RunSpec) error { return s.OOO.Validate() },
	window:     func(s *RunSpec) uint64 { return uint64(s.OOO.ROBSize + s.OOO.SLIQSize) },
	predictor:  func(s *RunSpec) func() predictor.Predictor { return s.OOO.NewPredictor },
	memConfig:  func(s *RunSpec) interface{} { return s.OOO.Mem },
	newEngine:  func(s *RunSpec) sample.Engine { return ooo.New(s.OOO) },
}

var dkipDesc = &archDesc{
	arch:       ArchDKIP,
	name:       "dkip",
	ckptFamily: "core",
	normalize: func(s *RunSpec) {
		s.DKIP = s.DKIP.WithDefaults()
		s.DKIP.Mem = s.DKIP.Mem.WithDefaults()
		s.OOO = ooo.Config{}
		s.Inorder = inorder.Config{}
	},
	config:     func(s *RunSpec) interface{} { return s.DKIP },
	configName: func(s *RunSpec) string { return s.DKIP.Name },
	validate:   func(s *RunSpec) error { return s.DKIP.Validate() },
	window: func(s *RunSpec) uint64 {
		w := uint64(s.DKIP.LLIBSize)
		if r := uint64(s.DKIP.ROBSize); r > w {
			w = r
		}
		return w
	},
	predictor: func(s *RunSpec) func() predictor.Predictor { return s.DKIP.NewPredictor },
	memConfig: func(s *RunSpec) interface{} { return s.DKIP.Mem },
	newEngine: func(s *RunSpec) sample.Engine { return core.New(s.DKIP) },
}

var inorderDesc = &archDesc{
	arch:       ArchInorder,
	name:       "inorder",
	ckptFamily: "ooo", // caches + predictor only, same structure as ooo
	normalize: func(s *RunSpec) {
		s.Inorder = s.Inorder.WithDefaults()
		s.Inorder.Mem = s.Inorder.Mem.WithDefaults()
		s.OOO = ooo.Config{}
		s.DKIP = core.Config{}
	},
	config:     func(s *RunSpec) interface{} { return s.Inorder },
	configName: func(s *RunSpec) string { return s.Inorder.Name },
	validate:   func(s *RunSpec) error { return s.Inorder.Validate() },
	window:     func(s *RunSpec) uint64 { return uint64(s.Inorder.Window) },
	predictor:  func(s *RunSpec) func() predictor.Predictor { return s.Inorder.NewPredictor },
	memConfig:  func(s *RunSpec) interface{} { return s.Inorder.Mem },
	newEngine:  func(s *RunSpec) sample.Engine { return inorder.New(s.Inorder) },
}

var (
	archByID   = map[Arch]*archDesc{}
	archByName = map[string]*archDesc{}
)

func init() {
	for _, d := range []*archDesc{oooDesc, dkipDesc, inorderDesc} {
		archByID[d.arch] = d
		archByName[d.name] = d
	}
}

// desc resolves an Arch to its registered engine. Unknown Arch values keep
// the historical behavior of dispatching to the out-of-order engine (specs
// are code; an unregistered value is a programming error surfaced by
// String's arch(N) rendering, not a crash site).
func desc(a Arch) *archDesc {
	if d, ok := archByID[a]; ok {
		return d
	}
	return oooDesc
}

// ArchNames lists the registered engine names in Arch order.
func ArchNames() []string {
	names := make([]string, 0, len(archByID))
	for _, d := range archByID {
		names = append(names, d.name)
	}
	sort.Slice(names, func(i, j int) bool {
		return archByName[names[i]].arch < archByName[names[j]].arch
	})
	return names
}

// Archs lists the registered engines in Arch order.
func Archs() []Arch {
	names := ArchNames()
	archs := make([]Arch, len(names))
	for i, n := range names {
		archs[i] = archByName[n].arch
	}
	return archs
}

// ParseArch resolves an engine name as printed by Arch.String — a
// registered name, or the "arch(N)" fallback rendering, which round-trips
// to Arch(N). Unknown names error with the registered list.
func ParseArch(name string) (Arch, error) {
	if d, ok := archByName[name]; ok {
		return d.arch, nil
	}
	var n uint8
	if _, err := fmt.Sscanf(name, "arch(%d)", &n); err == nil && fmt.Sprintf("arch(%d)", n) == name {
		return Arch(n), nil
	}
	return 0, fmt.Errorf("sim: unknown arch %q (registered engines: %s)", name, strings.Join(ArchNames(), ", "))
}
