package gen

import (
	"testing"

	"repro/internal/rng"
)

func TestHypercube(t *testing.T) {
	for d := 0; d <= 6; d++ {
		g := Hypercube(d)
		mustValidate(t, g)
		if g.N() != 1<<d {
			t.Fatalf("d=%d: n = %d", d, g.N())
		}
		if g.M() != d*(1<<d)/2 {
			t.Fatalf("d=%d: m = %d, want %d", d, g.M(), d*(1<<d)/2)
		}
		if d > 0 && (g.MinDegree() != d || g.MaxDegree() != d) {
			t.Fatalf("d=%d: not %d-regular", d, d)
		}
		if !g.Connected() {
			t.Fatalf("d=%d: disconnected", d)
		}
	}
}

func TestHypercubePanicsOnHugeDimension(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("d=21 did not panic")
		}
	}()
	Hypercube(21)
}

func TestCompleteBipartite(t *testing.T) {
	g := CompleteBipartite(3, 4)
	mustValidate(t, g)
	if g.N() != 7 || g.M() != 12 {
		t.Fatalf("K(3,4): n=%d m=%d", g.N(), g.M())
	}
	if g.MinDegree() != 3 || g.MaxDegree() != 4 {
		t.Fatalf("K(3,4): δ=%d Δ=%d", g.MinDegree(), g.MaxDegree())
	}
	// No edges within a part.
	if g.HasEdge(0, 1) || g.HasEdge(3, 4) {
		t.Fatal("intra-part edge present")
	}
	// Degenerate parts.
	if g := CompleteBipartite(0, 5); g.M() != 0 {
		t.Fatal("K(0,5) should have no edges")
	}
}

func TestHeterogeneousUDG(t *testing.T) {
	src := rng.New(9)
	g, pts, radii := HeterogeneousUDG(200, 12, 1.0, 3.0, src)
	mustValidate(t, g)
	if g.N() != 200 || len(pts) != 200 || len(radii) != 200 {
		t.Fatal("size mismatch")
	}
	for _, r := range radii {
		if r < 1.0 || r > 3.0 {
			t.Fatalf("radius %v out of range", r)
		}
	}
	// Every edge must be mutually reachable; every non-edge within both
	// radii would be a bug — spot check edges.
	g.Edges(func(u, v int) {
		d := pts[u].Dist(pts[v])
		if d > radii[u]+1e-12 || d > radii[v]+1e-12 {
			t.Errorf("edge {%d,%d} at distance %v exceeds a radius (%v, %v)",
				u, v, d, radii[u], radii[v])
		}
	})
	// Cross-check symmetry against brute force on a small instance.
	g2, pts2, radii2 := HeterogeneousUDG(60, 6, 0.8, 2.0, src)
	for u := 0; u < g2.N(); u++ {
		for v := u + 1; v < g2.N(); v++ {
			d := pts2[u].Dist(pts2[v])
			want := d <= radii2[u] && d <= radii2[v]
			if g2.HasEdge(u, v) != want {
				t.Fatalf("edge {%d,%d}: got %v want %v", u, v, g2.HasEdge(u, v), want)
			}
		}
	}
}

func TestHeterogeneousUDGPanicsOnBadRadii(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("rMax < rMin did not panic")
		}
	}()
	HeterogeneousUDG(10, 5, 2, 1, rng.New(1))
}

func TestCirculant(t *testing.T) {
	g := Circulant(10, 4)
	mustValidate(t, g)
	if g.MinDegree() != 4 || g.MaxDegree() != 4 {
		t.Fatalf("C(10,4): δ=%d Δ=%d, want 4-regular", g.MinDegree(), g.MaxDegree())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(0, 2) || g.HasEdge(0, 3) {
		t.Fatal("circulant offsets wrong")
	}
	if !g.HasEdge(0, 9) || !g.HasEdge(0, 8) {
		t.Fatal("circulant wraparound missing")
	}
	// d = 0: edgeless.
	if g := Circulant(5, 0); g.M() != 0 {
		t.Fatal("C(5,0) has edges")
	}
}

func TestCirculantPanics(t *testing.T) {
	// Odd degree, degree >= n, overlapping offsets (d/2 >= ceil(n/2)).
	cases := []struct{ n, d int }{{5, 3}, {4, 6}, {6, 6}}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Circulant(%d,%d) did not panic", c.n, c.d)
				}
			}()
			Circulant(c.n, c.d)
		}()
	}
}
