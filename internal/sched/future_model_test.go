package sched

import (
	"fmt"
	"testing"
)

// This file model-checks the completion word of a recycled Future
// (future.go) by exhaustive interleaving enumeration (the explorer of
// model_test.go): one record lives through two generations — forked,
// joined and freed by its owner, forked again — and every atomic operation
// of the real protocol is one step of one party. Each generation's task
// sits in a one-item deque until one CAS decides its fate: a thief — the
// generation's completer — steals it and completes it on another worker,
// or the joiner's first round pops it back (popBack) and runs it as a
// call, which writes the result and nothing else, and relists the record
// without resetting the word. The joiner's steps are Join's load, the pop,
// the call, waitChan's load and CAS, the block on the channel, the read of
// the result, joinFree's reset of the word (after a stolen generation
// only) and the next fork; the completer's are the steal, the write of the
// result, the Swap and the close. Checked on every path:
//
//   - a channel is closed at most once, and only by the completer of the
//     generation whose joiner installed it;
//   - the joiner of a generation reads that generation's result;
//   - no completer takes a step on the record once the joiner has freed
//     its generation — the property that makes the record the owner's to
//     reuse (a steal that lost to the pop touches only the deque);
//   - a record relisted without a reset holds a nil word;
//   - at quiescence both generations are joined: no waiter is left blocked.
//
// Two negative controls run the same search broken: the two-word protocol
// the word replaced (store done, then load the channel and close it), and
// a relist that skips the reset after a stolen generation too, whose next
// joiner reads a stale doneWait and with it a stale result.
//
// The token path is joinFree's: the joiner installs its worker's
// capacity-1 token channel, one for every generation, and the completer
// sends a token to it instead of closing — or drops the send when a token
// is pending already. A joiner blocked in the first generation may be
// unwound by its run's abort instead: it abandons the record with the
// token in its word, and forks the second generation on a fresh record,
// in a fresh run; the abandoned record's completer may send its token
// into the second generation's wait. So the wait drains the channel
// before the install. Checked on top: a joiner whose future has completed
// never sleeps — it is never blocked on an empty channel with no send left
// to come. The control drains after the install, and can eat the token of
// its own completion.

const (
	fmDone  int8 = -1 // the word holds doneWait
	fmTok   int8 = -2 // the word holds the joiner's token channel
	fmMaxCh      = 4  // channels one search may install
	fmGens       = 2
)

// Joiner program counters.
const (
	fjLoad     int8 = iota // Join's loop: load the word (two-word: the done flag)
	fjPop                  // popBack, the first round only: take the task back from the deque
	fjCall                 // call: the joiner runs the task, writing the result
	fjInstLoad             // waitChan: load the word
	fjInstCAS              // waitChan: install a new channel against nil
	fjRecheck              // two-word only: re-load done after the install
	fjBlock                // blocked on the channel in hand
	fjObserve              // done seen: read the result
	fjFree                 // joinFree: reset the word (two-word: the channel word) unless the task was called
	fjFree2                // two-word only: reset the done flag
	fjRefork               // fork the next generation
	fjDrain                // token path: take a pending token, if any
	fjFinished
)

// Completer program counters.
const (
	fcUnforked int8 = iota
	fcSteal         // PopTop: take the task from the deque, unless the joiner popped it back
	fcWrite         // write the result
	fcPublish       // Swap doneWait in (two-word: store done)
	fcLoadCh        // two-word only: load the channel word
	fcClose         // close the channel taken
	fcSend          // token path: send a token, or drop it on a full channel
	fcFinished
)

type fmCompleter struct {
	pc int8
	ch int8 // the channel it took and must close
}

// mWord models a waitWord and the channels installed in it; its methods
// are the word's atomic operations, one model step each, shared with the
// run record's model (run_model_test.go) and Group's (group_model_test.go).
type mWord struct {
	word   int8 // 0 nil, fmDone, or a channel's number
	nch    int8
	closed [fmMaxCh + 1]int8
}

// install is waitChan's CAS of a new channel against nil; it fails, and
// returns 0, if the word is not nil any more.
func (x *mWord) install() (ch int8, err error) {
	if x.word != 0 {
		return 0, nil
	}
	if x.nch == fmMaxCh {
		return 0, fmt.Errorf("more than %d channels installed", fmMaxCh)
	}
	x.nch++
	x.word = x.nch
	return x.nch, nil
}

// swapDone is finish's Swap: the channel a waiter installed, if any, is
// the caller's to close.
func (x *mWord) swapDone() (ch int8) {
	ch, x.word = x.word, fmDone
	return max(ch, 0)
}

func (x *mWord) close(ch int8) error {
	if x.closed[ch]++; x.closed[ch] > 1 {
		return fmt.Errorf("channel %d closed twice", ch)
	}
	return nil
}

// fmState is the whole model.
type fmState struct {
	mWord
	done   bool // two-word only
	result int8 // the generation that wrote it last
	gen    int8 // the generation in flight
	dq     int8 // the generation whose task the one-item deque holds, or 0
	popped bool // the joiner has made this generation's first-round pop
	called bool // ... and it returned the task, which the joiner ran
	jpc    int8
	jch    int8 // the channel the joiner blocks on: fmTok on the token path
	tok    int8 // tokens pending in the joiner's token channel, 0 or 1
	// aborted says the joiner abandoned the first generation's record, and
	// aword is that record's word, which its completer goes on to end.
	aborted bool
	aword   int8
	maker   [fmMaxCh + 1]int8 // the generation whose joiner installed the channel
	freed   [fmGens + 1]bool
	c       [fmGens + 1]fmCompleter
}

type futureModel struct {
	// twoWord selects the replaced protocol: a done flag beside the channel
	// word. ignoreLate lets the search run on past a completer's step on a
	// freed record, to show what such a step goes on to break. unreset
	// relists every generation without a reset, a stolen one too.
	twoWord, ignoreLate, unreset bool
	// token selects the token path; drainLate, its control, drains after
	// the install.
	token, drainLate bool
	// What the search came across, so the test can tell it covered the
	// joiner blocking, losing the install to the Swap, and never waiting,
	// both ends of the race for the task, and on the token path a stale
	// token drained and one that woke the joiner early.
	blocks, lostInstalls, neverWaited, poppedBack, stolen int
	staleDrains, staleWakes                               int
}

func (m *futureModel) initial() fmState {
	var s fmState
	s.gen, s.dq = 1, 1
	s.c[1].pc = fcSteal
	return s
}

// joinerStep moves the joiner one step, if it can move (it is not blocked,
// nor finished).
func (m *futureModel) joinerStep(s fmState) ([]fmState, error) {
	switch s.jpc {
	case fjLoad:
		switch {
		case s.word == fmDone || (m.twoWord && s.done):
			s.jpc = fjObserve
		case !s.popped:
			s.jpc = fjPop
		default:
			s.jpc = fjInstLoad
		}
	case fjPop:
		s.popped, s.jpc = true, fjLoad
		if s.dq == s.gen {
			m.poppedBack++
			s.dq, s.called, s.jpc = 0, true, fjCall
		}
	case fjCall:
		s.result = s.gen
		s.jpc = fjObserve
	case fjInstLoad:
		switch {
		case s.word == fmDone: // doneWait's channel is closed: the select falls through
			m.lostInstalls++
			s.jpc = fjLoad
		case s.word != 0:
			s.jch, s.jpc = s.word, fjBlock
		case m.token && !m.drainLate:
			s.jpc = fjDrain
		default:
			s.jpc = fjInstCAS
		}
	case fjDrain:
		if s.tok > 0 {
			m.staleDrains++
		}
		s.tok = 0
		s.jpc = fjInstCAS
		if m.drainLate {
			s.jpc = fjBlock
		}
	case fjInstCAS:
		if m.token {
			if s.word != 0 {
				s.jpc = fjInstLoad
				break
			}
			s.word, s.jch = fmTok, fmTok
			s.jpc = fjBlock
			if m.drainLate {
				s.jpc = fjDrain
			}
			break
		}
		ch, err := s.install()
		if err != nil {
			return nil, err
		}
		if ch == 0 {
			s.jpc = fjInstLoad
			break
		}
		s.jch, s.maker[ch] = ch, s.gen
		s.jpc = fjBlock
		if m.twoWord {
			s.jpc = fjRecheck
		}
	case fjRecheck:
		s.jpc = fjBlock
		if s.done {
			s.jpc = fjLoad
		}
	case fjBlock:
		if s.jch == fmTok {
			var next []fmState
			if !s.aborted && s.gen == 1 { // the run's word wakes the joiner, which unwinds
				n := s
				n.aborted, n.aword, n.word = true, n.word, 0
				n.jpc = fjRefork
				next = append(next, n)
			}
			if s.tok == 0 {
				return next, m.sleeping(s)
			}
			if s.word != fmDone {
				m.staleWakes++
			}
			s.tok = 0
			m.blocks++
			s.jpc = fjLoad
			return append(next, s), nil
		}
		if s.closed[s.jch] == 0 {
			return nil, nil
		}
		m.blocks++
		s.jpc = fjLoad
	case fjObserve:
		if s.result != s.gen {
			return nil, fmt.Errorf("generation %d's joiner read generation %d's result", s.gen, s.result)
		}
		if s.jch == 0 || s.jch > 0 && s.maker[s.jch] != s.gen {
			m.neverWaited++
		}
		s.jpc = fjFree
	case fjFree:
		s.freed[s.gen] = true
		s.jpc = fjRefork
		if s.called && (s.word != 0 || s.done) {
			return nil, fmt.Errorf("generation %d, called by its joiner, is relisted unreset with its word set", s.gen)
		}
		if s.called || m.unreset {
			break
		}
		s.word = 0
		if m.twoWord {
			s.jpc = fjFree2
		}
	case fjFree2:
		s.done = false
		s.jpc = fjRefork
	case fjRefork:
		s.gen++
		s.jpc = fjFinished
		if m.token {
			s.jch = 0
		}
		if s.gen <= fmGens {
			s.jpc, s.c[s.gen].pc = fjLoad, fcSteal
			s.dq, s.popped, s.called = s.gen, false, false
		}
	case fjFinished:
		return nil, nil
	}
	return []fmState{s}, nil
}

// sleeping checks the joiner asleep on its token channel, empty: a send must
// still be on its way, or the future must be pending.
func (m *futureModel) sleeping(s fmState) error {
	if s.word != fmDone {
		return nil
	}
	for g := int8(1); g <= fmGens; g++ {
		if s.c[g].pc == fcSend {
			return nil
		}
	}
	return fmt.Errorf("generation %d's joiner sleeps on an empty token channel though its future has completed", s.gen)
}

// completerStep moves generation g's completer one step, if it has one.
func (m *futureModel) completerStep(s fmState, g int8) ([]fmState, error) {
	c := &s.c[g]
	if c.pc == fcUnforked || c.pc == fcFinished {
		return nil, nil
	}
	if s.freed[g] && c.pc != fcSteal && c.pc != fcSend && !m.ignoreLate {
		return nil, fmt.Errorf("generation %d's completer takes step %d after the joiner freed the record", g, c.pc)
	}
	switch c.pc {
	case fcSteal:
		c.pc = fcFinished
		if s.dq == g {
			m.stolen++
			s.dq, c.pc = 0, fcWrite
		}
	case fcWrite:
		if !s.aborted || g != 1 { // else the abandoned record's result
			s.result = g
		}
		c.pc = fcPublish
	case fcPublish:
		if m.twoWord {
			s.done = true
			c.pc = fcLoadCh
			break
		}
		if m.token {
			word := &s.word
			if s.aborted && g == 1 {
				word = &s.aword
			}
			c.pc = fcFinished
			if *word == fmTok {
				c.pc = fcSend
			}
			*word = fmDone
			break
		}
		c.ch = s.swapDone()
		c.pc = fcFinished
		if c.ch > 0 {
			c.pc = fcClose
		}
	case fcSend:
		s.tok = 1
		c.pc = fcFinished
	case fcLoadCh:
		c.ch = s.word
		c.pc = fcFinished
		if c.ch > 0 {
			c.pc = fcClose
		}
	case fcClose:
		if err := s.close(c.ch); err != nil {
			return nil, err
		}
		if s.maker[c.ch] != g {
			return nil, fmt.Errorf("generation %d's completer closed the channel of generation %d's joiner", g, s.maker[c.ch])
		}
		c.pc = fcFinished
	}
	return []fmState{s}, nil
}

// explorer searches over the parties: 0 the joiner, g generation g's
// completer.
func (m *futureModel) explorer() *explorer[fmState] {
	return &explorer[fmState]{
		actors: fmGens + 1,
		step: func(s fmState, party int) ([]fmState, error) {
			if party == 0 {
				return m.joinerStep(s)
			}
			return m.completerStep(s, int8(party))
		},
		final: func(s fmState) error {
			if s.jpc != fjFinished {
				return fmt.Errorf("generation %d's joiner is left at step %d with nothing to wake it", s.gen, s.jpc)
			}
			for g := int8(1); g <= fmGens; g++ {
				if s.c[g].pc != fcFinished {
					return fmt.Errorf("quiescent with generation %d's completer at step %d", g, s.c[g].pc)
				}
			}
			return nil
		},
	}
}

func TestFutureModelExhaustive(t *testing.T) {
	m := &futureModel{}
	m.explorer().verify(t, m.initial())
	if m.blocks == 0 || m.lostInstalls == 0 || m.neverWaited == 0 || m.poppedBack == 0 || m.stolen == 0 {
		t.Fatalf("the search reached %d blocked joins, %d installs lost to the Swap, %d joins that never waited, %d tasks popped back and %d stolen; want some of each",
			m.blocks, m.lostInstalls, m.neverWaited, m.poppedBack, m.stolen)
	}
}

// The token path: joinFree's joiner blocks on its worker's token channel,
// which the completer of a record abandoned by an abort may send to while
// the joiner waits for its next fork.
func TestFutureModelToken(t *testing.T) {
	m := &futureModel{token: true}
	m.explorer().verify(t, m.initial())
	if m.blocks == 0 || m.lostInstalls == 0 || m.neverWaited == 0 || m.staleDrains == 0 || m.staleWakes == 0 {
		t.Fatalf("the search reached %d blocked joins, %d installs lost to the Swap, %d joins that never waited, %d stale tokens drained and %d early wakes; want some of each",
			m.blocks, m.lostInstalls, m.neverWaited, m.staleDrains, m.staleWakes)
	}
}

// The token path's control: a joiner that drains after its install may
// take the token its own completer sent in between, and then sleep with
// its future complete and nothing left to wake it.
func TestFutureModelCatchesDrainAfterInstall(t *testing.T) {
	m := &futureModel{token: true, drainLate: true}
	m.explorer().refute(t, m.initial())
}

// The negative control: with completion on two words, the completer loads
// the channel word after the store that lets the joiner go, so it steps on
// a record that may already be freed and forked again — and, followed
// further, closes the next generation's channel, which that generation's
// own completer then closes a second time. The search must find both.
func TestFutureModelCatchesTwoWordCompletion(t *testing.T) {
	for _, ignoreLate := range []bool{false, true} {
		m := &futureModel{twoWord: true, ignoreLate: ignoreLate}
		m.explorer().refute(t, m.initial())
	}
}

// The negative control for the work-first join: only a generation its
// joiner called may skip the reset. A stolen one leaves doneWait in the
// word, so relisting it as it is lets the next generation's joiner take
// the stale doneWait for its own completion and read the stale result.
func TestFutureModelCatchesUnresetRelist(t *testing.T) {
	m := &futureModel{unreset: true}
	m.explorer().refute(t, m.initial())
}
