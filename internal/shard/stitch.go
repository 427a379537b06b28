package shard

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/domset"
	"repro/internal/graph"
	"repro/internal/heal"
	"repro/internal/instance"
	"repro/internal/obs"
	"repro/internal/sched"
)

// Stitched is the result of merging per-shard schedules into one
// whole-graph schedule.
type Stitched struct {
	// Schedule is the merged, validated whole-graph schedule.
	Schedule *core.Schedule
	// Repairs counts boundary recruitments (node-segments enlisted beyond
	// the shard plans).
	Repairs int
	// Replans counts shard replan escalations.
	Replans int
	// Degraded reports that stitching truncated the schedule at a segment
	// it could not repair, before every shard plan was exhausted.
	Degraded bool
}

// sphase is one shard phase projected to global IDs: owned members only
// (halo members are the owning shard's to run), sorted.
type sphase struct {
	set []int
	dur int
}

// scursor tracks how much of a shard's phase list the stitcher has
// consumed: phases[idx] with off slots already committed.
type scursor struct {
	idx, off int
}

// Stitch merges per-shard schedules into one whole-graph schedule,
// phase-aligned on the union of all shard phase boundaries. For every
// segment it scores the union of the shards' owned active sets against the
// full graph with one domset.Session, which SetMembers moves from segment to
// segment (halo members are dropped — that is where cross-boundary holes
// come from), and climbs a repair ladder:
//
//  1. recruitment — heal.RecruitCover enlists the highest-residual idle
//     closed neighbors of each under-covered node for the segment, where
//     residual is the energy not yet committed or reserved by the node's
//     own shard plan;
//  2. shard replan — the shard owning a still-uncovered node has its
//     remaining phases rebuilt by sched.Replan over its residual budgets
//     (owned nodes only), and the segment is re-scored;
//  3. truncation — a segment no replan can cover ends the schedule there,
//     reported as Degraded.
//
// The merged schedule is belt-checked with Schedule.ValidateWith before
// being returned; a violation is a stitcher bug, surfaced as an error.
func Stitch(parent *instance.Instance, p *Partition, solved []*ShardResult, hooks obs.Hooks) (*Stitched, error) {
	g, budgets := parent.Graph, parent.Budgets
	n := g.N()
	if len(budgets) != n || len(p.Assign) != n {
		return nil, fmt.Errorf("shard: stitch over %d nodes with %d budgets and a partition of %d", n, len(budgets), len(p.Assign))
	}
	if len(solved) != len(p.Shards) {
		return nil, fmt.Errorf("shard: %d shard results for %d shards", len(solved), len(p.Shards))
	}
	k := parent.Tolerance()

	// Project every shard schedule to global owned members and reserve its
	// planned energy.
	phases := make([][]sphase, len(p.Shards))
	committed := make([]int, n)
	reserved := make([]int, n) // planned-but-not-yet-committed usage
	for pos, sr := range solved {
		if sr == nil || sr.Shard != p.Shards[pos] {
			return nil, fmt.Errorf("shard: result %d does not match partition position %d", pos, pos)
		}
		phases[pos] = projectPhases(sr.Shard, sr.Schedule)
		for _, ph := range phases[pos] {
			for _, v := range ph.set {
				reserved[v] += ph.dur
			}
		}
	}
	cursors := make([]scursor, len(p.Shards))

	sess := domset.NewSession(g).Reset(nil, k, nil)
	uncovBuf := make([]int, 0, n)
	res := &Stitched{Schedule: &core.Schedule{}}
	residual := func(v int) int { return budgets[v] - committed[v] - reserved[v] }
	// finish compacts the merged schedule and belt-checks it: every return
	// with a schedule goes through here.
	finish := func() (*Stitched, error) {
		res.Schedule = res.Schedule.Compact()
		if err := res.Schedule.ValidateWith(sess, budgets, k); err != nil {
			return nil, fmt.Errorf("shard: stitched schedule invalid: %w", err)
		}
		return res, nil
	}

	t := 0
	for {
		members, segDur := segment(phases, cursors)
		if segDur == -1 {
			return finish() // every shard plan exhausted: the stitched schedule ends
		}

		// Repair ladder for this segment. Each shard may be replanned at
		// most once per segment, so the loop terminates.
		replanned := make(map[int]bool)
		var recruits []int
		for {
			// This also drops the previous pass's recruits, which the
			// session holds but members does not.
			sess.SetMembers(members)
			uncovBuf = sess.AppendUndominated(uncovBuf[:0])
			if len(uncovBuf) == 0 {
				break
			}
			got, ok := heal.RecruitCover(g, sess, uncovBuf, k, segDur, residual, func(r, u int) {
				hooks.Emit(obs.Shard("repair", p.Shards[p.Assign[u]].Index, t, r, u))
			})
			recruits = append(recruits, got...)
			res.Repairs += len(got)
			if ok {
				break
			}
			uncovBuf = sess.AppendUndominated(uncovBuf[:0])
			pos := p.Assign[uncovBuf[0]]
			if replanned[pos] {
				// Rung 3: nothing left to try — truncate here.
				hooks.Emit(obs.Shard("truncate", -1, t, len(uncovBuf), 0))
				res.Degraded = true
				return finish()
			}
			replanned[pos] = true
			res.Replans++
			replanTail(g, p, pos, budgets, committed, reserved, phases, cursors, k, t, hooks)
			// The shard's plan changed: recompute the segment from scratch.
			recruits = recruits[:0]
			if members, segDur = segment(phases, cursors); segDur == -1 {
				// The replan emptied the last remaining plan (no residual
				// energy): the schedule ends cleanly here.
				return finish()
			}
		}

		// Commit the segment: charge plan members and recruits, advance
		// cursors, append the output phase.
		final := make([]int, 0, len(members)+len(recruits))
		final = append(final, members...)
		final = append(final, recruits...)
		sort.Ints(final)
		for pos := range p.Shards {
			c := &cursors[pos]
			if c.idx >= len(phases[pos]) {
				continue
			}
			ph := phases[pos][c.idx]
			for _, v := range ph.set {
				committed[v] += segDur
				reserved[v] -= segDur
			}
			c.off += segDur
			if c.off >= ph.dur {
				c.idx++
				c.off = 0
			}
		}
		for _, v := range recruits {
			committed[v] += segDur
		}
		res.Schedule.Phases = append(res.Schedule.Phases, core.Phase{Set: final, Duration: segDur})
		t += segDur
	}
}

// segment returns the union of the shards' active owned sets at the current
// cursors and the segment's duration: the slots to the earliest next phase
// boundary over all shards with plan remaining, or -1 when every plan is
// exhausted. Shards own disjoint nodes, so concatenation is a union.
func segment(phases [][]sphase, cursors []scursor) ([]int, int) {
	var members []int
	dur := -1
	for pos, c := range cursors {
		if c.idx >= len(phases[pos]) {
			continue
		}
		ph := phases[pos][c.idx]
		members = append(members, ph.set...)
		if remain := ph.dur - c.off; dur == -1 || remain < dur {
			dur = remain
		}
	}
	return members, dur
}

// projectPhases maps a shard schedule from local IDs to global owned
// members, dropping halo members and empty phases.
func projectPhases(sh *Shard, s *core.Schedule) []sphase {
	var out []sphase
	owned := sh.Owned()
	for _, ph := range s.Phases {
		if ph.Duration <= 0 {
			continue
		}
		set := make([]int, 0, len(ph.Set))
		for _, lv := range ph.Set {
			if lv < owned {
				set = append(set, sh.Orig[lv])
			}
		}
		sort.Ints(set)
		out = append(out, sphase{set: set, dur: ph.Duration})
	}
	return out
}

// replanTail rebuilds shard pos's remaining phases from its residual
// budgets: reservations for the abandoned tail are released, then
// sched.Replan runs over the shard subgraph restricted to owned nodes
// (halo nodes neither serve nor need coverage — they are the neighboring
// shards' responsibility), and the new tail's energy is reserved.
func replanTail(g *graph.Graph, p *Partition, pos int, budgets, committed, reserved []int, phases [][]sphase, cursors []scursor, k, t int, hooks obs.Hooks) {
	sh := p.Shards[pos]
	c := cursors[pos]
	for i := c.idx; i < len(phases[pos]); i++ {
		remain := phases[pos][i].dur
		if i == c.idx {
			remain -= c.off
		}
		for _, v := range phases[pos][i].set {
			reserved[v] -= remain
		}
	}
	localRes := make([]int, len(sh.Orig))
	ownedMask := make([]bool, len(sh.Orig))
	for i, v := range sh.Orig {
		if i < sh.Owned() {
			localRes[i] = budgets[v] - committed[v]
			ownedMask[i] = true
		}
	}
	next := sched.Replan(sh.Sub, localRes, k, ownedMask)
	tail := projectPhases(sh, next)
	for _, ph := range tail {
		for _, v := range ph.set {
			reserved[v] += ph.dur
		}
	}
	phases[pos] = tail
	cursors[pos] = scursor{}
	hooks.Emit(obs.Shard("replan", sh.Index, t, next.Lifetime(), 0))
}
