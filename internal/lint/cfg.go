package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the flow-aware half of the abplint engine: a per-function
// control-flow graph (CFG), a dominator computation over it, and a
// reaching-definitions pass. PR 2's analyzers were pure AST walks, which is
// enough for "does this call appear here" questions but not for ordering
// ("does the handshake store precede every load?", analyzer handshake) or
// dataflow ("is this tag freshly loaded?", analyzer tagaba; "does this
// boolean result ever reach a use?", analyzer mustcheck). The CFG is
// intraprocedural and intentionally modest: blocks hold the statements (and
// extracted condition expressions) of one straight-line region, edges
// follow Go's structured control flow plus goto/labeled break/continue.
// Panics and calls are treated as non-terminating, which errs on the side
// of more paths — the conservative direction for every current client.

// A block is one straight-line region of a function body. Nodes holds the
// statements and extracted condition/iteration expressions in execution
// order; Succs the possible successors.
type block struct {
	index int
	nodes []ast.Node
	succs []*block
	preds []*block
}

// A funcCFG is the control-flow graph of one function body. Entry is the
// first block executed; parameters and named results are considered
// defined at entry (see reachingDefs).
type funcCFG struct {
	entry  *block
	blocks []*block

	// nodeBlock and nodeIndex locate each block node for position queries.
	nodeBlock map[ast.Node]*block
	nodeIndex map[ast.Node]int

	dom   [][]bool // dom[i][j]: block j dominates block i (lazily built)
	reach [][]bool // reach[i][j]: an edge path leads from block i to j (lazy)
}

// buildCFG constructs the CFG of body. It never returns nil: an empty body
// yields a single empty entry block.
func buildCFG(body *ast.BlockStmt) *funcCFG {
	b := &cfgBuilder{
		g: &funcCFG{
			nodeBlock: map[ast.Node]*block{},
			nodeIndex: map[ast.Node]int{},
		},
		labels: map[string]*labelInfo{},
	}
	b.g.entry = b.newBlock()
	b.cur = b.g.entry
	b.stmtList(body.List)
	b.patchGotos()
	return b.g
}

type loopFrame struct {
	label          string
	breakTo        *block
	continueTo     *block
	isSwitchSelect bool // break applies, continue does not
}

type labelInfo struct {
	target *block // resolved goto target (first block of the labeled stmt)
}

type pendingGoto struct {
	from  *block
	label string
}

type cfgBuilder struct {
	g      *funcCFG
	cur    *block
	frames []loopFrame
	labels map[string]*labelInfo
	gotos  []pendingGoto

	// pendingLabel is set while building the statement a label names, so
	// loops can register their break/continue targets under it.
	pendingLabel string
}

func (b *cfgBuilder) newBlock() *block {
	blk := &block{index: len(b.g.blocks)}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *block) {
	if from == nil || to == nil {
		return
	}
	from.succs = append(from.succs, to)
	to.preds = append(to.preds, from)
}

// add appends a node to the current block and indexes it.
func (b *cfgBuilder) add(n ast.Node) {
	if n == nil || b.cur == nil {
		return
	}
	b.g.nodeBlock[n] = b.cur
	b.g.nodeIndex[n] = len(b.cur.nodes)
	b.cur.nodes = append(b.cur.nodes, n)
}

// startBlock makes blk current; a nil cur means the previous statement
// ended control flow (return/branch), so blk starts unreachable unless an
// edge is added elsewhere (e.g. a loop back edge or goto).
func (b *cfgBuilder) startBlock(blk *block) { b.cur = blk }

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Cond)
		condBlk := b.cur
		thenBlk := b.newBlock()
		join := b.newBlock()
		b.edge(condBlk, thenBlk)
		b.startBlock(thenBlk)
		b.stmt(s.Body)
		b.edge(b.cur, join)
		if s.Else != nil {
			elseBlk := b.newBlock()
			b.edge(condBlk, elseBlk)
			b.startBlock(elseBlk)
			b.stmt(s.Else)
			b.edge(b.cur, join)
		} else {
			b.edge(condBlk, join)
		}
		b.startBlock(join)

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock()
		body := b.newBlock()
		post := b.newBlock()
		exit := b.newBlock()
		b.edge(b.cur, head)
		b.startBlock(head)
		if s.Cond != nil {
			b.add(s.Cond)
			b.edge(head, exit)
		}
		b.edge(head, body)
		b.pushFrame(loopFrame{label: label, breakTo: exit, continueTo: post})
		b.startBlock(body)
		b.stmt(s.Body)
		b.popFrame()
		b.edge(b.cur, post)
		b.startBlock(post)
		if s.Post != nil {
			b.stmt(s.Post)
		}
		b.edge(b.cur, head)
		b.startBlock(exit)

	case *ast.RangeStmt:
		label := b.takeLabel()
		b.add(s.X)
		head := b.newBlock()
		body := b.newBlock()
		exit := b.newBlock()
		b.edge(b.cur, head)
		// The per-iteration key/value bindings happen at the head.
		b.startBlock(head)
		b.add(s)
		b.edge(head, body)
		b.edge(head, exit)
		b.pushFrame(loopFrame{label: label, breakTo: exit, continueTo: head})
		b.startBlock(body)
		b.stmt(s.Body)
		b.popFrame()
		b.edge(b.cur, head)
		b.startBlock(exit)

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.caseClauses(s.Body.List, label, nil)

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Assign)
		b.caseClauses(s.Body.List, label, nil)

	case *ast.SelectStmt:
		label := b.takeLabel()
		head := b.cur
		exit := b.newBlock()
		b.pushFrame(loopFrame{label: label, breakTo: exit, isSwitchSelect: true})
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			blk := b.newBlock()
			b.edge(head, blk)
			b.startBlock(blk)
			if cc.Comm != nil {
				b.stmt(cc.Comm)
			}
			b.stmtList(cc.Body)
			b.edge(b.cur, exit)
		}
		b.popFrame()
		// A select with no clauses blocks forever: exit keeps no edges and
		// stays unreachable, which is the right model.
		b.startBlock(exit)

	case *ast.LabeledStmt:
		// Start a fresh block so the label has a well-defined target for
		// goto and labeled break/continue.
		target := b.newBlock()
		b.edge(b.cur, target)
		b.startBlock(target)
		b.labels[s.Label.Name] = &labelInfo{target: target}
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.BranchStmt:
		b.add(s)
		switch s.Tok {
		case token.BREAK:
			if f := b.findFrame(s.Label, false); f != nil {
				b.edge(b.cur, f.breakTo)
			}
			b.startBlock(nil)
		case token.CONTINUE:
			if f := b.findFrame(s.Label, true); f != nil {
				b.edge(b.cur, f.continueTo)
			}
			b.startBlock(nil)
		case token.GOTO:
			if s.Label != nil {
				b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: s.Label.Name})
			}
			b.startBlock(nil)
		case token.FALLTHROUGH:
			// Handled by caseClauses via fallthrough detection; as a node in
			// the block it needs no extra edge here (caseClauses adds it).
		}

	case *ast.ReturnStmt:
		b.add(s)
		b.startBlock(nil)

	default:
		// Simple statements: assignments, declarations, expression/send/
		// inc-dec/go/defer statements.
		b.add(s)
	}
}

// caseClauses builds the blocks of a switch or type-switch body.
func (b *cfgBuilder) caseClauses(list []ast.Stmt, label string, _ *block) {
	head := b.cur
	exit := b.newBlock()
	b.pushFrame(loopFrame{label: label, breakTo: exit, isSwitchSelect: true})
	var prev *block // previous clause body, for fallthrough
	var prevFellThrough bool
	hasDefault := false
	for _, c := range list {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		blk := b.newBlock()
		b.edge(head, blk)
		if prevFellThrough {
			b.edge(prev, blk)
		}
		b.startBlock(blk)
		for _, e := range cc.List {
			b.add(e)
		}
		b.stmtList(cc.Body)
		prev = b.cur
		prevFellThrough = endsInFallthrough(cc.Body)
		if !prevFellThrough {
			b.edge(b.cur, exit)
		}
	}
	b.popFrame()
	if !hasDefault {
		b.edge(head, exit)
	}
	b.startBlock(exit)
}

func endsInFallthrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *cfgBuilder) pushFrame(f loopFrame) { b.frames = append(b.frames, f) }
func (b *cfgBuilder) popFrame()             { b.frames = b.frames[:len(b.frames)-1] }

// findFrame resolves the frame a break/continue targets. continue skips
// switch/select frames.
func (b *cfgBuilder) findFrame(label *ast.Ident, isContinue bool) *loopFrame {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := &b.frames[i]
		if isContinue && f.isSwitchSelect {
			continue
		}
		if label == nil || f.label == label.Name {
			return f
		}
	}
	return nil
}

func (b *cfgBuilder) patchGotos() {
	for _, g := range b.gotos {
		if info, ok := b.labels[g.label]; ok {
			b.edge(g.from, info.target)
		}
	}
}

// dominators lazily computes the dominator sets with the classic iterative
// dataflow: dom(entry) = {entry}; dom(b) = {b} ∪ ⋂ dom(preds). Unreachable
// blocks keep the full set (vacuously dominated), which is the conservative
// answer for dead code.
func (g *funcCFG) dominators() [][]bool {
	if g.dom != nil {
		return g.dom
	}
	n := len(g.blocks)
	dom := make([][]bool, n)
	for i := range dom {
		dom[i] = make([]bool, n)
		if i == g.entry.index {
			dom[i][i] = true
		} else {
			for j := range dom[i] {
				dom[i][j] = true
			}
		}
	}
	changed := true
	for changed {
		changed = false
		for _, blk := range g.blocks {
			if blk == g.entry {
				continue
			}
			i := blk.index
			next := make([]bool, n)
			first := true
			for _, p := range blk.preds {
				if first {
					copy(next, dom[p.index])
					first = false
				} else {
					for j := range next {
						next[j] = next[j] && dom[p.index][j]
					}
				}
			}
			if first { // no predecessors: unreachable, keep full set
				continue
			}
			next[i] = true
			for j := range next {
				if next[j] != dom[i][j] {
					dom[i] = next
					changed = true
					break
				}
			}
		}
	}
	g.dom = dom
	return dom
}

// dominates reports whether every path from entry to node b passes through
// node a first: a and b in the same block with a earlier, or a's block
// strictly dominating b's. Nodes not indexed in the CFG (inside nested
// function literals, for instance) are never dominated — the conservative
// answer for ordering claims.
func (g *funcCFG) dominates(a, b ast.Node) bool {
	ba, oka := g.nodeBlock[a]
	bb, okb := g.nodeBlock[b]
	if !oka || !okb {
		return false
	}
	if ba == bb {
		return g.nodeIndex[a] < g.nodeIndex[b]
	}
	return g.dominators()[bb.index][ba.index]
}

// reachability lazily computes the successor-transitive closure:
// reachability()[i][j] holds when a path of at least one edge leads from
// block i to block j (so reach[i][i] means block i lies on a cycle).
func (g *funcCFG) reachability() [][]bool {
	if g.reach != nil {
		return g.reach
	}
	n := len(g.blocks)
	reach := make([][]bool, n)
	for i, blk := range g.blocks {
		reach[i] = make([]bool, n)
		frontier := append([]*block(nil), blk.succs...)
		for len(frontier) > 0 {
			s := frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
			if reach[i][s.index] {
				continue
			}
			reach[i][s.index] = true
			frontier = append(frontier, s.succs...)
		}
	}
	g.reach = reach
	return reach
}

// canReach reports whether control can flow from block node a to block node
// b — that is, some execution runs b after a. Within one block the node
// order decides (later nodes are reachable; earlier ones only when the
// block lies on a cycle). Nodes the CFG did not index are conservatively
// reachable both ways: absence of ordering evidence is not an ordering.
func (g *funcCFG) canReach(a, b ast.Node) bool {
	ba, oka := g.nodeBlock[a]
	bb, okb := g.nodeBlock[b]
	if !oka || !okb {
		return true
	}
	if ba == bb && g.nodeIndex[a] < g.nodeIndex[b] {
		return true
	}
	return g.reachability()[ba.index][bb.index]
}

// onCycle reports whether block node n lies on a cycle of the CFG; a node
// the CFG did not index (nil included) does not.
func (g *funcCFG) onCycle(n ast.Node) bool {
	blk, ok := g.nodeBlock[n]
	return ok && g.reachability()[blk.index][blk.index]
}

// blockNodeAt returns the block node lexically containing pos, or nil. A
// node "contains" pos when pos lies in [Pos, End); the innermost (latest
// appended, smallest) match wins because blocks never hold overlapping
// statements except via extracted sub-expressions, which are preferred.
func (g *funcCFG) blockNodeAt(pos token.Pos) ast.Node {
	var best ast.Node
	for n := range g.nodeBlock {
		if n.Pos() <= pos && pos < n.End() {
			if best == nil || (n.Pos() >= best.Pos() && n.End() <= best.End()) {
				best = n
			}
		}
	}
	return best
}

// --- Reaching definitions ---

// A definition is one assignment (or declaration, inc/dec, range binding,
// address-taken escape, or closure write) of a variable. Entry definitions
// (parameters, receivers, named results) have a nil node.
type definition struct {
	v    *types.Var
	node ast.Node // the block node performing the definition; nil at entry
	// weak definitions (address taken, closure writes) generate without
	// killing: the variable MAY be redefined through the alias.
	weak bool
}

// reachInfo answers "which definitions of v can reach this program point".
type reachInfo struct {
	g    *funcCFG
	defs []*definition
	// in[block index] is the bitset of definitions reaching block entry.
	in [][]bool
	// genAt[node] lists definitions the node generates, killAt the
	// definition indexes it kills (all other defs of the same vars).
	genAt map[ast.Node][]int
}

// reachingDefs runs the classic forward may-analysis over the CFG. The
// declared set of variables is discovered from info; fn's parameters,
// receiver, and named results (params) are defined at entry.
func (g *funcCFG) reachingDefs(info *types.Info, params []*types.Var) *reachInfo {
	r := &reachInfo{g: g, genAt: map[ast.Node][]int{}}
	defIdx := map[*definition]int{}
	byVar := map[*types.Var][]int{}
	addDef := func(d *definition) int {
		i := len(r.defs)
		r.defs = append(r.defs, d)
		defIdx[d] = i
		byVar[d.v] = append(byVar[d.v], i)
		return i
	}
	var entryDefs []int
	for _, p := range params {
		entryDefs = append(entryDefs, addDef(&definition{v: p}))
	}
	// Collect per-node definitions in block order.
	for _, blk := range g.blocks {
		for _, n := range blk.nodes {
			for _, d := range nodeDefs(info, n) {
				i := addDef(d)
				r.genAt[n] = append(r.genAt[n], i)
			}
		}
	}

	n := len(g.blocks)
	nd := len(r.defs)
	r.in = make([][]bool, n)
	out := make([][]bool, n)
	for i := range r.in {
		r.in[i] = make([]bool, nd)
		out[i] = make([]bool, nd)
	}
	for _, i := range entryDefs {
		r.in[g.entry.index][i] = true
	}

	transfer := func(blk *block, set []bool) {
		for _, node := range blk.nodes {
			for _, di := range r.genAt[node] {
				d := r.defs[di]
				if !d.weak {
					for _, other := range byVar[d.v] {
						set[other] = false
					}
				}
				set[di] = true
			}
		}
	}
	changed := true
	for changed {
		changed = false
		for _, blk := range g.blocks {
			i := blk.index
			set := make([]bool, nd)
			if blk == g.entry {
				for _, di := range entryDefs {
					set[di] = true
				}
			}
			for _, p := range blk.preds {
				for j, b := range out[p.index] {
					if b {
						set[j] = true
					}
				}
			}
			copy(r.in[i], set)
			transfer(blk, set)
			if !boolsEqual(set, out[i]) {
				copy(out[i], set)
				changed = true
			}
		}
	}
	return r
}

func boolsEqual(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// defsReaching returns the definitions of v that can reach the program
// point just before block node at. Returns nil when at is not a block node.
func (r *reachInfo) defsReaching(at ast.Node, v *types.Var) []*definition {
	blk, ok := r.g.nodeBlock[at]
	if !ok {
		return nil
	}
	set := make([]bool, len(r.defs))
	copy(set, r.in[blk.index])
	stop := r.g.nodeIndex[at]
	for _, node := range blk.nodes[:stop] {
		for _, di := range r.genAt[node] {
			d := r.defs[di]
			if !d.weak {
				for j, other := range r.defs {
					if other.v == d.v {
						set[j] = false
					}
				}
			}
			set[di] = true
		}
	}
	var out []*definition
	for i, b := range set {
		if b && r.defs[i].v == v {
			out = append(out, r.defs[i])
		}
	}
	return out
}

// nodeDefs extracts the definitions a single block node performs. Nested
// function literals are not descended into for strong definitions — a
// closure assigning an outer variable is recorded as a weak definition of
// it (the write happens at an unknown time), as is taking its address.
func nodeDefs(info *types.Info, n ast.Node) []*definition {
	var out []*definition
	varOf := func(e ast.Expr) *types.Var {
		ident, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		if o, ok := info.Defs[ident].(*types.Var); ok {
			return o
		}
		o, _ := info.Uses[ident].(*types.Var)
		return o
	}
	var walk func(node ast.Node, weak bool)
	walk = func(node ast.Node, weak bool) {
		ast.Inspect(node, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.FuncLit:
				// Closure writes are weak defs of the outer variables.
				walk(x.Body, true)
				return false
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					if v := varOf(lhs); v != nil {
						out = append(out, &definition{v: v, node: n, weak: weak})
					}
				}
			case *ast.IncDecStmt:
				if v := varOf(x.X); v != nil {
					out = append(out, &definition{v: v, node: n, weak: weak})
				}
			case *ast.ValueSpec:
				for _, name := range x.Names {
					if v, ok := info.Defs[name].(*types.Var); ok {
						out = append(out, &definition{v: v, node: n, weak: weak})
					}
				}
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					if v := varOf(x.X); v != nil {
						out = append(out, &definition{v: v, node: n, weak: true})
					}
				}
			case *ast.RangeStmt:
				if v := varOf(x.Key); v != nil {
					out = append(out, &definition{v: v, node: n, weak: weak})
				}
				if x.Value != nil {
					if v := varOf(x.Value); v != nil {
						out = append(out, &definition{v: v, node: n, weak: weak})
					}
				}
				// Only the header bindings belong to this node; the body's
				// statements are separate block nodes.
				if x.X != nil {
					walk(x.X, weak)
				}
				return false
			}
			return true
		})
	}
	// Compound statements contribute only their header: their inner
	// statements are distinct block nodes walked on their own.
	switch s := n.(type) {
	case *ast.RangeStmt:
		walk(s, false)
	case *ast.IfStmt, *ast.ForStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt, *ast.LabeledStmt, *ast.BlockStmt:
		// Never appended as block nodes (their parts are); nothing to do.
	default:
		walk(n, false)
	}
	return out
}

// funcParams collects the receiver, parameters, and named results of a
// function declaration as entry-defined variables.
func funcParams(info *types.Info, ft *ast.FuncType, recv *ast.FieldList) []*types.Var {
	var out []*types.Var
	collect := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if v, ok := info.Defs[name].(*types.Var); ok {
					out = append(out, v)
				}
			}
		}
	}
	collect(recv)
	collect(ft.Params)
	collect(ft.Results)
	return out
}
