package main

import (
	"math"
	"time"
)

// Arrival is one submission of an open-loop schedule: when it is due,
// as an offset from the start of the window, and how many children its
// root spawns.
type Arrival struct {
	DueNs  int64
	Fanout int32
}

// GenConfig describes an open-loop arrival stream: Poisson arrivals at
// Rate per second until Horizon, each with a lognormal fan-out clamped to
// [FanMin, FanMax].
type GenConfig struct {
	Rate            float64
	FanMu, FanSigma float64
	FanMin, FanMax  int
	Horizon         time.Duration
	Seed            uint64
}

// serveOpenGen is the serve_open stream: at 12 000 submissions/s its mean
// fan-out of 3.8 children of 2 000 spins loads the processor the pacing
// generator leaves to the pool to about 30 %.
func serveOpenGen(seed uint64, rate float64, horizon time.Duration) GenConfig {
	return GenConfig{Rate: rate, FanMu: 1.0, FanSigma: 0.8, FanMin: 1, FanMax: 64, Horizon: horizon, Seed: seed}
}

// splitmix64 is the generator's only source of randomness. It is written
// out here so that the offered load is a pure function of the seed and
// does not move with the toolchain's math/rand.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unit returns a uniform value in (0, 1], so its logarithm is finite.
func (s *splitmix64) unit() float64 {
	return float64(s.next()>>11+1) / (1 << 53)
}

// arrivalStream yields the arrivals of a GenConfig one at a time, so the
// open loop holds no schedule in memory: what the benchmark keeps live,
// the collector has to walk while the workload runs.
type arrivalStream struct {
	c   GenConfig
	rng splitmix64
	due float64 // ns
}

func newArrivalStream(c GenConfig) *arrivalStream {
	return &arrivalStream{c: c, rng: splitmix64(c.Seed)}
}

// expected is an upper estimate of how many arrivals the stream holds.
func (s *arrivalStream) expected() int { return int(s.c.Rate*s.c.Horizon.Seconds()*1.05) + 16 }

// next returns the next arrival, or false once the horizon is reached.
func (s *arrivalStream) next() (Arrival, bool) {
	c := &s.c
	s.due += -math.Log(s.rng.unit()) / c.Rate * 1e9
	if s.due >= float64(c.Horizon.Nanoseconds()) {
		return Arrival{}, false
	}
	// Box-Muller; the second variate is dropped to keep one draw
	// sequence per arrival.
	z := math.Sqrt(-2*math.Log(s.rng.unit())) * math.Cos(2*math.Pi*s.rng.unit())
	fan := int(math.Floor(math.Exp(c.FanMu+c.FanSigma*z) + 0.5))
	fan = min(max(fan, c.FanMin), c.FanMax)
	return Arrival{DueNs: int64(s.due), Fanout: int32(fan)}, true
}

// Generate returns the arrivals of c in due order. It is a pure function
// of c: the golden test pins its output for seeds 1 and 2.
func Generate(c GenConfig) []Arrival {
	s := newArrivalStream(c)
	out := make([]Arrival, 0, s.expected())
	for a, ok := s.next(); ok; a, ok = s.next() {
		out = append(out, a)
	}
	return out
}

// totalTasks is the number of tasks the arrivals make the pool run: one
// root and Fanout children each.
func totalTasks(as []Arrival) int64 {
	var n int64
	for _, a := range as {
		n += 1 + int64(a.Fanout)
	}
	return n
}
