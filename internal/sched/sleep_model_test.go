package sched

import (
	"fmt"
	"testing"

	"worksteal/internal/modelcheck"
)

// This file model-checks a worker's sleep (lifecycle.go: sleep, wakeIf) on
// internal/modelcheck, once for every sleeper: park, the retired sleep and
// a blocked join take the token as one step in their own models.
// The actors: a sleeper that makes two sleeps — take a number, publish that
// it sleeps, re-check, then take tokens until one carries its number or
// the re-check it makes on any other token finds a reason — and two wakers,
// each of which publishes a reason to wake it (work, an ended word, an
// abort), loads the number, loads the publication and, if it read the
// sleeper there, sends the number it loaded; a third sends 0 after its
// reason, as Resize and endSession do. The channel holds one token and
// drops a send that finds it full. Checked on every path:
//
//   - a sleep ends as a wake only on its own number: the token it ends on
//     was sent by a waker that read that sleep's publication, never by one
//     that read an earlier sleep's and stalled;
//   - a wake sent while that number is current ends that sleep: its token
//     carries the number, or, kept out of the full channel, leaves the
//     token that fills it to make the sleeper look — at quiescence the
//     sleeper is not asleep with a reason published that no sleep's end
//     has taken.
//
// The controls break one half each. Unnumbered tokens — any token ends a
// sleep as a wake — let a waker that read the first sleep's publication,
// and stalled, end the second. A sleep that takes no look on another token
// sleeps on past a stale one that kept its own out of the channel.

// Sleeper steps.
const (
	slBegin   int8 = iota // sleep.begin: the number
	slPublish             // the status word's or the completion word's store
	slRecheck             // the look before the wait
	slWait                // blocked on the channel
	slLook                // a token not this sleep's: the re-check
	slEnd                 // the sleep is over: unpublish, and take the reasons
	slDone
)

// Waker steps.
const (
	swReason int8 = iota // publish the reason
	swNumber             // sleep.number
	swPub                // the load of the publication
	swSend               // sleep.wake
	swDone
)

const slSleeps = 2

type slState struct {
	pc      int8
	n       int8 // the number the last begin took
	pub     bool // the sleeper has published, and not yet unpublished
	reasons int8 // reasons published and not yet taken by a sleep's end
	tok     bool // a token is in the channel
	tokN    int8 // ... carrying this number
	tokFor  int8 // ... sent by a waker that read this sleep's publication, or 0
	wpc     [3]int8
	wn      [3]int8 // the number waker j loaded
	wfor    [3]int8 // the sleep whose publication it read, or 0
}

type sleepModel struct {
	unnumbered bool // negative control: any token ends a sleep as a wake
	noLook     bool // negative control: a token not the sleep's own is ignored
	// What the search came across, so the test can tell what it covered.
	wakes, looks, dropped, stale int
}

func (m *sleepModel) sleeper(s slState) ([]slState, error) {
	switch s.pc {
	case slBegin:
		s.n++
		s.pc = slPublish
	case slPublish:
		s.pub, s.pc = true, slRecheck
	case slRecheck, slLook:
		if s.reasons > 0 {
			s.pc = slEnd
		} else {
			s.pc = slWait
		}
	case slWait:
		if !s.tok {
			return nil, nil
		}
		s.tok = false
		switch {
		case s.tokN == s.n || m.unnumbered:
			if s.tokFor != s.n {
				return nil, fmt.Errorf("sleep %d ends as a wake on a token sent for sleep %d: %+v", s.n, s.tokFor, s)
			}
			m.wakes++
			s.pc = slEnd
		case m.noLook:
			m.stale++
		default:
			m.looks++
			if s.tokN != 0 {
				m.stale++
			}
			s.pc = slLook
		}
	case slEnd:
		s.pub, s.reasons = false, 0
		if s.pc = slBegin; s.n == slSleeps {
			s.pc = slDone
		}
	default:
		return nil, nil
	}
	return []slState{s}, nil
}

// waker moves waker j one step: j < 2 sends the number it loaded, if it
// read the sleeper published; j == 2 sends 0 whatever it would read.
func (m *sleepModel) waker(s slState, j int) []slState {
	switch s.wpc[j] {
	case swReason:
		s.reasons++
		if s.wpc[j] = swNumber; j == 2 {
			s.wpc[j] = swSend
		}
	case swNumber:
		s.wn[j], s.wpc[j] = s.n, swPub
	case swPub:
		if s.wpc[j] = swSend; s.pub {
			s.wfor[j] = s.n
		}
	case swSend:
		s.wpc[j] = swDone
		if j < 2 && s.wfor[j] == 0 {
			break
		}
		if s.tok {
			m.dropped++
			break
		}
		s.tok, s.tokN, s.tokFor = true, s.wn[j], s.wfor[j]
	default:
		return nil
	}
	return []slState{s}
}

func (m *sleepModel) model() modelcheck.Model[slState] {
	return modelcheck.Model[slState]{
		Actors: 4,
		Step: func(s slState, a int) ([]slState, error) {
			if a == 0 {
				return m.sleeper(s)
			}
			return m.waker(s, a-1), nil
		},
		Final: func(s slState) error {
			if s.pc == slWait && s.reasons > 0 {
				return fmt.Errorf("sleep %d sleeps on with a reason no sleep has taken: %+v", s.n, s)
			}
			return nil
		},
	}
}

func TestSleepModelExhaustive(t *testing.T) {
	m := &sleepModel{}
	m.model().Verify(t, slState{}, 23554, 531)
	if m.wakes == 0 || m.looks == 0 || m.dropped == 0 || m.stale == 0 {
		t.Fatalf("the search covered %+v; want some of each", *m)
	}
}

// The control of the first half: with no number, the token of a waker that
// read the first sleep's publication and stalled ends the second as a
// wake.
func TestSleepModelCatchesUnnumberedToken(t *testing.T) {
	(&sleepModel{unnumbered: true}).model().Refute(t, slState{})
}

// The control of the second half: a sleep that does not look on another
// token sleeps on past a stale one that kept its own out of the channel.
func TestSleepModelCatchesNoLook(t *testing.T) {
	(&sleepModel{noLook: true}).model().Refute(t, slState{})
}
