package main

import "testing"

func TestValidateFlags(t *testing.T) {
	valid := flags{alg: "uniform", b: 3, k: 1}
	if err := valid.validate(); err != nil {
		t.Fatalf("valid flags rejected: %v", err)
	}
	cases := []struct {
		name string
		f    flags
	}{
		{"unknown alg", flags{alg: "frob", b: 3, k: 1}},
		{"negative b", flags{alg: "uniform", b: -1, k: 1}},
		{"negative bmax", flags{alg: "uniform", b: 3, bmax: -2, k: 1}},
		{"zero k", flags{alg: "uniform", b: 3, k: 0}},
		{"negative k", flags{alg: "ft", b: 3, k: -2}},
		{"negative failures", flags{alg: "uniform", b: 3, k: 1, failures: -1}},
		{"failures with b 0", flags{alg: "uniform", b: 0, k: 1, failures: 5}},
		{"loss out of range", flags{alg: "uniform", b: 3, k: 1, healing: true, loss: 1.0}},
		{"loss without heal", flags{alg: "uniform", b: 3, k: 1, loss: 0.2}},
		{"delta with heal", flags{alg: "uniform", b: 3, k: 1, healing: true, delta: "d.json"}},
		{"negative delta-at", flags{alg: "uniform", b: 3, k: 1, delta: "d.json", deltaAt: -1}},
		{"negative overlap", flags{alg: "uniform", b: 3, k: 1, delta: "d.json", overlap: -1}},
		{"wakeloss out of range", flags{alg: "uniform", b: 3, k: 1, delta: "d.json", wakeloss: 1.0}},
		{"wakeloss without delta", flags{alg: "uniform", b: 3, k: 1, wakeloss: 0.5}},
		{"negative shards", flags{alg: "uniform", b: 3, k: 1, shards: -2}},
		{"geom partitioner", flags{alg: "uniform", b: 3, k: 1, shards: 4, partitioner: "geom"}},
		{"unknown partitioner", flags{alg: "uniform", b: 3, k: 1, shards: 4, partitioner: "metis"}},
	}
	for _, c := range cases {
		if err := c.f.validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	for _, alg := range algs {
		if err := (flags{alg: alg, b: 3, k: 1}).validate(); err != nil {
			t.Errorf("-alg %s rejected: %v", alg, err)
		}
	}
	// -failures with -bmax set is fine: batteries are positive.
	ok := flags{alg: "uniform", b: 0, bmax: 4, k: 1, failures: 5}
	if err := ok.validate(); err != nil {
		t.Errorf("failures with bmax rejected: %v", err)
	}
	healOK := flags{alg: "uniform", b: 3, k: 1, healing: true, loss: 0.3}
	if err := healOK.validate(); err != nil {
		t.Errorf("heal with loss rejected: %v", err)
	}
	// The observability flags are valid in any combination, on either
	// runtime.
	obsOK := flags{alg: "uniform", b: 3, k: 1,
		trace: "run.jsonl", metrics: true, obsAddr: "127.0.0.1:0"}
	if err := obsOK.validate(); err != nil {
		t.Errorf("obs flags rejected: %v", err)
	}
	obsHeal := flags{alg: "ft", b: 3, k: 2, healing: true, trace: "run.jsonl"}
	if err := obsHeal.validate(); err != nil {
		t.Errorf("obs flags with heal rejected: %v", err)
	}
	shardOK := flags{alg: "uniform", b: 3, k: 1, shards: 4, partitioner: "bfs"}
	if err := shardOK.validate(); err != nil {
		t.Errorf("shard flags rejected: %v", err)
	}
	deltaOK := flags{alg: "uniform", b: 3, k: 1,
		delta: "d.json", deltaAt: 2, overlap: 2, wakeloss: 0.5, chaos: "", trace: "run.jsonl"}
	if err := deltaOK.validate(); err != nil {
		t.Errorf("delta flags rejected: %v", err)
	}
}
