package sched

import (
	"fmt"
	"testing"

	"worksteal/internal/modelcheck"
)

// This file model-checks the completion word of a recycled Future
// (future.go) by exhaustive interleaving enumeration
// (internal/modelcheck): one record lives through two generations — forked,
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
// The token path is joinFree's (waitWord.waitToken): the joiner puts its
// worker's sleep in the word, one for every generation, re-checks — the
// word, the run's state — and sleeps; the completer sends its sleep a token
// instead of closing, or drops the send when a token is pending already.
// The token is one step here: sleep_model_test.go shows that its number
// never ends a later sleep as a wake, and any token makes the sleep look
// again, ending it if the word has ended or the run aborted, whereupon it
// takes itself back out of a word that has not ended. The first
// generation's run may abort while it is pending (a fourth party: the store
// of the run's state, then a token to the same channel), and then its task
// never completes: a thief that steals it after the store discards it, and
// one running it may unwind through a join of its own. The joiner's help
// reads the state before each block and unwinds: it abandons the record,
// and forks the second generation on a fresh record, in a fresh run; the
// abort's token may reach the second generation's sleep. So nothing drains
// the channel. Checked on top: a joiner whose future has completed never
// sleeps — it is never blocked on an empty channel with no send left to
// come — one whose run aborted is not left asleep, and an abandoned record
// holds no sleep of the joiner's for its completer to wake. The controls
// run the parent's shape — no look, no take-back, and any token back to
// Join's loop — and drain: before the install, which can eat the abort's
// token, and after it, which can eat the token of its own completion.

// The lazy path is the private region's (lazy.go): each generation is
// forked into the joiner's region, uncounted, where its thief cannot take
// it but can ask; the joiner's poll then publishes it — an Add to the
// joiner's scope, then the push. The model counts that scope: the joiner's
// own task, and each published fork until a thief's release or the
// joiner's own, which ends the task with the public calls it folded.
// Checked on top: the scope never goes below zero, and empties only after
// every task counted in it has ended. The control folds the call of a
// private fork too, as if it had been counted.

const (
	fmDone  int8 = -1 // the word holds doneWait
	fmTok   int8 = -2 // the word holds the joiner's token channel
	fmMaxCh      = 4  // channels one search may install
	fmGens       = 2
)

// Joiner program counters.
const (
	fjLoad       int8 = iota // Join's loop: load the word (two-word: the done flag)
	fjPop                    // popBack, the first round only: take the task back from the deque
	fjCall                   // call: the joiner runs the task, writing the result
	fjInstLoad               // waitChan: load the word
	fjInstCAS                // waitChan: install a new channel against nil
	fjRecheck                // two-word only: re-load done after the install
	fjBlock                  // blocked on the channel in hand
	fjObserve                // done seen: read the result
	fjFree                   // joinFree: reset the word (two-word: the channel word) unless the task was called
	fjFree2                  // two-word only: reset the done flag
	fjRefork                 // fork the next generation
	fjDrain                  // token path, controls only: take a pending token, if any
	fjHelp                   // token path: help's load of the run's state, before a block
	fjLook                   // token path: the sleep's re-check — the word, the run's state — after the install and on a token
	fjWithdraw               // token path: the sleep takes itself back out of a word that has not ended
	fjExpose                 // lazy path: a thief asked; clear the word and Add the private fork
	fjExposePush             // lazy path: push it
	fjRelease                // lazy path: the joiner's task ends, releasing itself and its folded calls
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
	fcRelease       // lazy path: the stolen task's release of the joiner's scope
	fcFinished
)

type fmCompleter struct {
	pc int8
	ch int8 // the channel it took and must close
}

// mWord models a waitWord and the channels installed in it; its methods
// are the word's atomic operations, one model step each, shared with the
// run record's model (run_model_test.go).
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
	ab      int8 // the first generation's run: 0 live, 1 aborted, 2 and its token sent
	// The lazy path: priv is the generation whose task sits in the
	// joiner's private region, uncounted, or 0; want is a thief's request;
	// refs counts the joiner's scope — the joiner's own task, and each
	// published fork until its exec or the joiner's release ends it — and
	// fold the calls the joiner's release ends with its task.
	priv       int8
	want       bool
	refs, fold int8
	maker      [fmMaxCh + 1]int8 // the generation whose joiner installed the channel
	freed      [fmGens + 1]bool
	c          [fmGens + 1]fmCompleter
}

type futureModel struct {
	// twoWord selects the replaced protocol: a done flag beside the channel
	// word. ignoreLate lets the search run on past a completer's step on a
	// freed record, to show what such a step goes on to break. unreset
	// relists every generation without a reset, a stolen one too.
	twoWord, ignoreLate, unreset bool
	// token selects the token path; drainEarly and drainLate, its
	// controls, drain before and after the install.
	token, drainEarly, drainLate bool
	// lazy selects the private region: each generation is forked private,
	// and published only when its thief asks. foldPrivate, its control,
	// folds the call of a private fork into the joiner's release as if it
	// had been counted.
	lazy, foldPrivate bool
	// What the search came across, so the test can tell it covered the
	// joiner blocking, losing the install to the Swap, and never waiting,
	// both ends of the race for the task, and on the token path a stale
	// token drained and one that woke the joiner early.
	blocks, lostInstalls, neverWaited, poppedBack, stolen int
	staleWakes, unwound, discarded                        int
	privateCalls, exposed                                 int
}

func (m *futureModel) initial() fmState {
	var s fmState
	s.gen, s.dq = 1, 1
	s.c[1].pc = fcSteal
	if m.lazy {
		s.dq, s.priv, s.refs = 0, 1, 1
	}
	return s
}

// release is one release of the joiner's scope by n: it must not go below
// zero, nor reach it while a task still counts there — the joiner's, or a
// stolen one's not yet released.
func (m *futureModel) release(s *fmState, n int8, party int) error {
	if s.refs -= n; s.refs < 0 {
		return fmt.Errorf("the joiner's scope released below zero")
	}
	if s.refs > 0 {
		return nil
	}
	if party != 0 && s.jpc != fjFinished {
		return fmt.Errorf("the joiner's scope emptied under the running joiner")
	}
	for g := int8(1); g <= fmGens; g++ {
		if int(g) != party && s.c[g].pc != fcUnforked && s.c[g].pc != fcFinished && s.c[g].pc != fcSteal {
			return fmt.Errorf("the joiner's scope emptied while generation %d's stolen task runs", g)
		}
	}
	return nil
}

// finished is where a completer goes once it has ended the word: on the
// lazy path, to release the scope its stolen task counted in.
func (m *futureModel) finished() int8 {
	if m.lazy {
		return fcRelease
	}
	return fcFinished
}

// joinerStep moves the joiner one step, if it can move (it is not blocked,
// nor finished).
func (m *futureModel) joinerStep(s fmState) ([]fmState, error) {
	switch s.jpc {
	case fjLoad:
		switch {
		case s.priv != 0 && s.want: // the poll: publish the region
			s.jpc = fjExpose
		case s.word == fmDone || (m.twoWord && s.done):
			s.jpc = fjObserve
		case !s.popped:
			s.jpc = fjPop
		case m.token:
			s.jpc = fjHelp
		default:
			s.jpc = fjInstLoad
		}
	case fjHelp:
		s.jpc = fjInstLoad
		if s.gen == 1 && s.ab > 0 {
			if err := m.unwind(&s); err != nil {
				return nil, err
			}
		}
	case fjExpose:
		s.want, s.refs = false, s.refs+1
		s.jpc = fjExposePush
		m.exposed++
	case fjExposePush:
		s.dq, s.priv = s.priv, 0
		s.jpc = fjLoad
	case fjPop:
		s.popped, s.jpc = true, fjLoad
		switch {
		case s.priv == s.gen: // uncounted: nothing to fold
			m.poppedBack++
			m.privateCalls++
			s.priv, s.called, s.jpc = 0, true, fjCall
			if m.foldPrivate {
				s.fold++
			}
		case s.dq == s.gen:
			m.poppedBack++
			s.dq, s.called, s.jpc = 0, true, fjCall
			if m.lazy {
				s.fold++
			}
		}
	case fjCall:
		if m.token && s.gen == 1 && s.ab > 0 { // call's gate: the task is discarded
			m.discarded++
			if err := m.unwind(&s); err != nil {
				return nil, err
			}
			break
		}
		s.result = s.gen
		s.jpc = fjObserve
	case fjInstLoad:
		switch {
		case s.word == fmDone: // doneWait's channel is closed: the select falls through
			m.lostInstalls++
			s.jpc = fjLoad
		case s.word != 0:
			s.jch, s.jpc = s.word, fjBlock
		case m.token && m.drainEarly:
			s.jpc = fjDrain
		default:
			s.jpc = fjInstCAS
		}
	case fjDrain:
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
			switch {
			case m.drainLate:
				s.jpc = fjDrain
			case m.drainEarly:
				s.jpc = fjBlock
			default:
				s.jpc = fjLook
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
			if s.tok == 0 {
				return nil, m.sleeping(s)
			}
			if s.word != fmDone && (s.gen > 1 || s.ab == 0) {
				m.staleWakes++
			}
			s.tok = 0
			m.blocks++
			s.jpc = fjLook
			if m.drainEarly || m.drainLate {
				s.jpc = fjLoad
			}
			break
		}
		if s.closed[s.jch] == 0 {
			return nil, nil
		}
		m.blocks++
		s.jpc = fjLoad
	case fjLook:
		s.jpc = fjBlock
		if s.word == fmDone || s.gen == 1 && s.ab > 0 {
			s.jpc = fjWithdraw
		}
	case fjWithdraw:
		if s.word == fmTok {
			s.word = 0
		}
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
		if m.lazy {
			s.jpc = fjRelease
		}
		if m.token {
			s.jch = 0
		}
		if s.gen <= fmGens {
			s.jpc, s.c[s.gen].pc = fjLoad, fcSteal
			s.dq, s.popped, s.called = s.gen, false, false
			if m.lazy {
				s.dq, s.priv = 0, s.gen
			}
		}
	case fjRelease:
		s.jpc = fjFinished
		if err := m.release(&s, 1+s.fold, 0); err != nil {
			return nil, err
		}
	case fjFinished:
		return nil, nil
	}
	return []fmState{s}, nil
}

// unwind is the joiner's abort in the first generation: it abandons the
// record, word and all, and goes on to fork the second on a fresh one. A
// sleep took itself back out of the word, so the record's completer has no
// token to send; the controls, the parent's shape, leave it there.
func (m *futureModel) unwind(s *fmState) error {
	if s.word == fmTok && !m.drainEarly && !m.drainLate {
		return fmt.Errorf("the joiner abandons a record whose word holds its sleep: %+v", *s)
	}
	m.unwound++
	s.aborted, s.aword, s.word = true, s.word, 0
	s.jpc = fjRefork
	return nil
}

// abortStep moves the first generation's run through its abort, while that
// generation is still pending: the store of the state, then the token.
func (m *futureModel) abortStep(s fmState) []fmState {
	switch {
	case !m.token || s.ab == 2:
		return nil
	case s.ab == 0 && (s.gen != 1 || s.word == fmDone || s.called):
		return nil
	case s.ab == 1:
		s.tok = 1
	}
	s.ab++
	return []fmState{s}
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
	if s.freed[g] && c.pc != fcSteal && c.pc != fcSend && c.pc != fcRelease && !m.ignoreLate { // a release touches the scope, not the record
		return nil, fmt.Errorf("generation %d's completer takes step %d after the joiner freed the record", g, c.pc)
	}
	switch c.pc {
	case fcSteal:
		if s.priv == g { // out of reach: ask for it, once
			if s.want {
				return nil, nil
			}
			s.want = true
			break
		}
		c.pc = fcFinished
		if s.dq == g {
			m.stolen++
			s.dq, c.pc = 0, fcWrite
			if m.token && g == 1 && s.ab > 0 { // execOrDrop's gate: discarded, never completed
				m.discarded++
				c.pc = fcFinished
			}
		}
	case fcWrite:
		var died []fmState
		if m.token && g == 1 && s.ab > 0 { // or the running task unwinds through the abort (a Join of its own)
			n := s
			n.c[g].pc = fcFinished
			died = append(died, n)
		}
		if !s.aborted || g != 1 { // else the abandoned record's result
			s.result = g
		}
		c.pc = fcPublish
		return append(died, s), nil
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
		c.pc = m.finished()
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
		c.pc = m.finished()
	case fcRelease:
		c.pc = fcFinished
		if err := m.release(&s, 1, int(g)); err != nil {
			return nil, err
		}
	}
	return []fmState{s}, nil
}

// model searches over the parties: 0 the joiner, g generation g's
// completer, and on the token path the first generation's abort.
func (m *futureModel) model() modelcheck.Model[fmState] {
	return modelcheck.Model[fmState]{
		Actors: fmGens + 2,
		Step: func(s fmState, party int) ([]fmState, error) {
			switch {
			case party == 0:
				return m.joinerStep(s)
			case party > fmGens:
				return m.abortStep(s), nil
			}
			return m.completerStep(s, int8(party))
		},
		Final: func(s fmState) error {
			if s.jpc != fjFinished {
				return fmt.Errorf("generation %d's joiner is left at step %d with nothing to wake it", s.gen, s.jpc)
			}
			for g := int8(1); g <= fmGens; g++ {
				if s.c[g].pc != fcFinished {
					return fmt.Errorf("quiescent with generation %d's completer at step %d", g, s.c[g].pc)
				}
			}
			if s.refs != 0 {
				return fmt.Errorf("quiescent with the joiner's scope at %d", s.refs)
			}
			return nil
		},
	}
}

func TestFutureModelExhaustive(t *testing.T) {
	m := &futureModel{}
	m.model().Verify(t, m.initial(), 171, 8)
	if m.blocks == 0 || m.lostInstalls == 0 || m.neverWaited == 0 || m.poppedBack == 0 || m.stolen == 0 {
		t.Fatalf("the search reached %d blocked joins, %d installs lost to the Swap, %d joins that never waited, %d tasks popped back and %d stolen; want some of each",
			m.blocks, m.lostInstalls, m.neverWaited, m.poppedBack, m.stolen)
	}
}

// The token path: joinFree's joiner sleeps in its future's word, and its
// run's abort sends its sleep a token too, which may reach the sleep of the
// next fork's join.
func TestFutureModelToken(t *testing.T) {
	m := &futureModel{token: true}
	m.model().Verify(t, m.initial(), 1815, 24)
	if m.blocks == 0 || m.lostInstalls == 0 || m.neverWaited == 0 || m.staleWakes == 0 || m.unwound == 0 || m.discarded == 0 {
		t.Fatalf("the search reached %d blocked joins, %d installs lost to the Swap, %d joins that never waited, %d early wakes, %d unwound joins and %d discarded tasks; want some of each",
			m.blocks, m.lostInstalls, m.neverWaited, m.staleWakes, m.unwound, m.discarded)
	}
}

// The token path's control of the parent's shape: a joiner that drains its
// channel before the install may take the abort's token, sent after its
// help read the run live, and then sleep on a fork its thief discards.
func TestFutureModelCatchesDrainBeforeInstall(t *testing.T) {
	m := &futureModel{token: true, drainEarly: true}
	m.model().Refute(t, m.initial())
}

// The lazy path: each generation is forked into the joiner's private
// region, uncounted, and its thief can only ask for it; the joiner's poll
// publishes it — an Add, then the push — and it is stolen, or popped back
// and called, counted, with its release folded into the joiner's. A
// private fork popped back is called with nothing to fold.
func TestFutureModelLazy(t *testing.T) {
	m := &futureModel{lazy: true}
	m.model().Verify(t, m.initial(), 1296, 28)
	if m.privateCalls == 0 || m.exposed == 0 || m.stolen == 0 || m.blocks == 0 || m.poppedBack == m.privateCalls {
		t.Fatalf("the search reached %d private calls, %d exposures, %d steals, %d blocked joins and %d public calls; want some of each",
			m.privateCalls, m.exposed, m.stolen, m.blocks, m.poppedBack-m.privateCalls)
	}
}

// The lazy path's control: a private fork's call folded as if it had been
// counted releases the joiner's scope once too often.
func TestFutureModelCatchesFoldedPrivateCall(t *testing.T) {
	m := &futureModel{lazy: true, foldPrivate: true}
	m.model().Refute(t, m.initial())
}

// The token path's control: a joiner that drains after its install may
// take the token its own completer sent in between, and then sleep with
// its future complete and nothing left to wake it.
func TestFutureModelCatchesDrainAfterInstall(t *testing.T) {
	m := &futureModel{token: true, drainLate: true}
	m.model().Refute(t, m.initial())
}

// The negative control: with completion on two words, the completer loads
// the channel word after the store that lets the joiner go, so it steps on
// a record that may already be freed and forked again — and, followed
// further, closes the next generation's channel, which that generation's
// own completer then closes a second time. The search must find both.
func TestFutureModelCatchesTwoWordCompletion(t *testing.T) {
	for _, ignoreLate := range []bool{false, true} {
		m := &futureModel{twoWord: true, ignoreLate: ignoreLate}
		m.model().Refute(t, m.initial())
	}
}

// The negative control for the work-first join: only a generation its
// joiner called may skip the reset. A stolen one leaves doneWait in the
// word, so relisting it as it is lets the next generation's joiner take
// the stale doneWait for its own completion and read the stale result.
func TestFutureModelCatchesUnresetRelist(t *testing.T) {
	m := &futureModel{unreset: true}
	m.model().Refute(t, m.initial())
}
