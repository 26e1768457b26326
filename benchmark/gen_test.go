package main

import (
	"reflect"
	"testing"
	"time"
)

// TestGenerateGolden pins the offered load of serve_open for seeds 1 and
// 2 over a one-second horizon, so that later work cannot change what the
// pool is asked to do without this test saying so.
func TestGenerateGolden(t *testing.T) {
	golden := []struct {
		seed         uint64
		count, tasks int64
		first        []Arrival
	}{
		{seed: 1, count: 12030, tasks: 57752, first: []Arrival{{47347, 5}, {114940, 3}, {125845, 2}, {145068, 1}, {210701, 1}, {359830, 4}, {391760, 4}, {600776, 5}}},
		{seed: 2, count: 11867, tasks: 56680, first: []Arrival{{43801, 2}, {66079, 1}, {92722, 3}, {119220, 1}, {168167, 8}, {300886, 1}, {381996, 10}, {435311, 2}}},
	}
	for _, g := range golden {
		as := Generate(serveOpenGen(g.seed, findWorkload("serve_open").serve.rate, time.Second))
		if int64(len(as)) != g.count || totalTasks(as) != g.tasks {
			t.Errorf("seed %d: %d submissions making %d tasks, want %d and %d", g.seed, len(as), totalTasks(as), g.count, g.tasks)
		}
		if !reflect.DeepEqual(as[:len(g.first)], g.first) {
			t.Errorf("seed %d: first arrivals %v, want %v", g.seed, as[:len(g.first)], g.first)
		}
	}
}

// TestGenerateIsAFunctionOfItsConfig checks the properties the workloads
// rely on: same config, same stream; due times ascend inside the horizon;
// fan-outs stay inside their clamp; a longer horizon extends the stream
// without changing its beginning.
func TestGenerateIsAFunctionOfItsConfig(t *testing.T) {
	c := serveOpenGen(3, 30000, 200*time.Millisecond)
	a, b := Generate(c), Generate(c)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two calls with one config differ")
	}
	for i, x := range a {
		if x.DueNs < 0 || x.DueNs >= c.Horizon.Nanoseconds() || (i > 0 && x.DueNs < a[i-1].DueNs) {
			t.Fatalf("arrival %d due at %d ns is out of order or outside the horizon", i, x.DueNs)
		}
		if int(x.Fanout) < c.FanMin || int(x.Fanout) > c.FanMax {
			t.Fatalf("arrival %d has fan-out %d outside [%d, %d]", i, x.Fanout, c.FanMin, c.FanMax)
		}
	}
	c.Horizon *= 2
	if long := Generate(c); !reflect.DeepEqual(long[:len(a)], a) {
		t.Error("a longer horizon changed the arrivals inside the shorter one")
	}
	c.Seed++
	if other := Generate(c); reflect.DeepEqual(other[:len(a)], a) {
		t.Error("another seed gave the same stream")
	}
}
