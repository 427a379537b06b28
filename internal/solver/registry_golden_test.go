package solver_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/instance"
	"repro/internal/rng"
	"repro/internal/solver"
)

// traitInstances is the fixed instance set of TestRegistryTraitsGolden: it
// crosses every trait a solver may check (uniform budgets, tolerance 1, the
// exact node cap, a certified grid, budget shape) with at least one
// instance on each side.
func traitInstances() []struct {
	name string
	in   *instance.Instance
} {
	type named = struct {
		name string
		in   *instance.Instance
	}
	var out []named
	for _, n := range []int{12, 30} {
		g := gen.GNP(n, 0.3, rng.New(uint64(n)))
		for _, k := range []int{1, 2} {
			out = append(out,
				named{fmt.Sprintf("gnp%d/uniform/k=%d", n, k), instance.New(g, uniformBudgets(n, 3)).WithK(k)},
				named{fmt.Sprintf("gnp%d/ramp/k=%d", n, k), instance.New(g, rampBudgets(n)).WithK(k)})
		}
	}
	grid := gen.Grid(4, 5)
	g12 := gen.GNP(12, 0.3, rng.New(12))
	return append(out,
		named{"grid4x5/uniform/k=1", instance.New(grid, uniformBudgets(grid.N(), 2))},
		named{"grid4x5/uniform/k=2", instance.New(grid, uniformBudgets(grid.N(), 2)).WithK(2)},
		named{"gnp12/negative", instance.New(g12, append(uniformBudgets(11, 3), -1))},
		named{"gnp12/mismatch", instance.New(g12, uniformBudgets(11, 3))})
}

// TestRegistryTraitsGolden pins what every registry entry does on a fixed
// grid of instances and specs: the Validate verdict (its error text, byte
// for byte), Guaranteed, and for accepted cases Solve's lifetime and
// schedule SHA-256 at Tries 3 and seed 1. Every name is crossed with
// Base "", greedy, auto, tabu and an unknown name, so the refiners' base
// resolution and Validate's "not a refiner" rejection are in the
// transcript too. The transcript's SHA-256 is the pin; on a mismatch the
// test logs the transcript.
func TestRegistryTraitsGolden(t *testing.T) {
	const want = "682de1a88a8c50d16b23e1297735aa43511a728ada3ceb50b952964a04cc94dd"
	var tr strings.Builder
	for _, name := range solver.Names() {
		for _, base := range []string{"", solver.NameGreedy, solver.NameAuto, solver.NameTabu, "nope"} {
			spec := solver.Spec{Name: name, Base: base}
			for _, c := range traitInstances() {
				fmt.Fprintf(&tr, "%s base=%q %s:", name, base, c.name)
				sv, err := solver.Resolve(name)
				if err != nil {
					t.Fatal(err)
				}
				if err := sv.Validate(c.in, spec); err != nil {
					fmt.Fprintf(&tr, " validate=%q", err.Error())
				} else {
					fmt.Fprint(&tr, " validate=ok")
				}
				if g, err := solver.Guaranteed(c.in, spec); err != nil {
					fmt.Fprintf(&tr, " guaranteed=%q", err.Error())
				} else {
					fmt.Fprintf(&tr, " guaranteed=%d", g)
				}
				s, err := solver.Solve(c.in, spec, solver.Options{Tries: 3, Src: rng.New(1)})
				if err != nil {
					fmt.Fprintf(&tr, " solve=%q\n", err.Error())
					continue
				}
				var buf bytes.Buffer
				if err := s.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(buf.Bytes())
				fmt.Fprintf(&tr, " lifetime=%d sha256=%s\n", s.Lifetime(), hex.EncodeToString(sum[:]))
			}
		}
	}
	sum := sha256.Sum256([]byte(tr.String()))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("registry transcript SHA-256 = %s, want %s\n%s", got, want, tr.String())
	}
}
