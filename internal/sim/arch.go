package sim

import "fmt"

// Arch selects the simulation engine for a RunSpec.
type Arch uint8

// Engines.
const (
	// ArchOOO is the R10000-style out-of-order core (package ooo): the
	// R10-* baselines, the limit-study cores, and — with the SLIQ
	// extension enabled — the KILO-1024 baseline (package kilo).
	ArchOOO Arch = iota
	// ArchDKIP is the Decoupled KILO-Instruction Processor (package core).
	ArchDKIP
	// ArchInorder is the dual-issue in-order C920-class core (package
	// inorder), the SG2042 hardware-calibration target.
	ArchInorder
)

// archNames names the engines, indexed by Arch.
var archNames = [...]string{ArchOOO: "ooo", ArchDKIP: "dkip", ArchInorder: "inorder"}

// String names the engine. Values outside the engines render as "arch(N)".
func (a Arch) String() string {
	if int(a) < len(archNames) {
		return archNames[a]
	}
	return fmt.Sprintf("arch(%d)", uint8(a))
}

// ArchNames lists the engine names in Arch order.
func ArchNames() []string { return append([]string(nil), archNames[:]...) }

// Archs lists the engines in Arch order.
func Archs() []Arch {
	archs := make([]Arch, len(archNames))
	for i := range archs {
		archs[i] = Arch(i)
	}
	return archs
}
