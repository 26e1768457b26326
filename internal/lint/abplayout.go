// abplayout is the cache-layout/false-sharing analyzer: the measurement
// counterpart of the hand-written padding in the deques, the injector and
// the scheduler. The paper's performance argument (Section 3.2 and the
// Figure 5 fast path) rests on a handful of hot shared words — the
// (tag, top) age word thieves CAS, the owner's bot, the injector
// positions, the parked flags every producer scans — staying off the
// cache lines other parties write. abplayout computes each declared
// struct's concrete layout with go/types Sizes (under both the amd64 and
// arm64 gc models), classifies every atomic field's writer role from
// the fact layer's access set, and reports:
//
//	(a) false sharing — an arbitration-hot field (CAS/Swap target or a
//	    declared-handshake word) sharing a 64-byte line with any other
//	    atomically accessed field;
//	(b) stale or miscounted padding — a blank `_ [N]byte` pad smaller
//	    than a cache line that fails to line-align the field after it
//	    (full-line pads, atomicx.CacheLinePad included, always isolate
//	    and are never flagged);
//	(c) element packing — a slice or array of a contention-hot struct
//	    whose element size is not a multiple of the line size, so
//	    elements written by different parties share lines;
//	(d) an arbitration-hot word (or aggregate of them) straddling a
//	    line boundary, splitting one CAS target across two lines.
//
// Findings are waived with a justified //abp:layout-ignore directive on
// or above the flagged line. DESIGN.md §8 maps each check to the paper
// claim it guards and records the deliberate over-approximations.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

var AbpLayout = &Analyzer{
	Name: "abplayout",
	Doc:  "computes concrete struct layouts (amd64 and arm64 Sizes) and flags false sharing between arbitration-hot and other atomic fields, miscounted pads, contention-hot element packing, and line-straddling CAS words",
	Run:  runAbpLayout,
}

// layoutModels are the two concrete size models every layout is checked
// under. Both are 64-bit gc layouts today, so they usually agree — the
// point of carrying both is that a divergence (a future model, a field
// whose size differs) is caught rather than assumed away.
var layoutModels = []struct {
	arch  string
	sizes types.Sizes
}{
	{"amd64", types.SizesFor("gc", "amd64")},
	{"arm64", types.SizesFor("gc", "arm64")},
}

// cacheLineSize mirrors atomicx.CacheLineSize; the lint package cannot
// import atomicx (fixtures load without it), so the constant is pinned
// here and cross-checked by the layout pin tests.
const cacheLineSize = 64

// Field writer roles, ordered by severity. The two arbitration roles are
// the "write-hot by a crowd" ones whose line no one else may dirty.
const (
	roleCold      = ""              // no atomic discipline, or never accessed
	roleReadMost  = "read-mostly"   // atomic reads only
	roleOwnerHot  = "owner-hot"     // every write receiver-direct in an //abp:owner context
	roleSharedHot = "shared-write"  // atomic writes from unowned contexts
	roleHandshake = "handshake-hot" // named by an //abp:handshake directive's protocol
	roleCASHot    = "cas-hot"       // CompareAndSwap/Swap target
)

func arbitrationRole(role string) bool {
	return role == roleCASHot || role == roleHandshake
}

type layoutAnalysis struct {
	*pkgFacts
	pass  *Pass
	roles map[*types.Var]string
}

func runAbpLayout(pass *Pass) error {
	l := &layoutAnalysis{pkgFacts: pass.facts, pass: pass, roles: map[*types.Var]string{}}
	l.classifyRoles()
	l.checkStructs()
	return nil
}

// classifyRoles assigns each atomically declared field a writer role from
// its collected accesses (over every function, context-less ones included:
// a hidden writer must still make its field's line hot) and the package's
// handshake table.
func (l *layoutAnalysis) classifyRoles() {
	// Handshake protocol words: a store=/load= operand either names a
	// function (its body's atomic writes/reads are the protocol's words)
	// or, when no function in the package matches, a field the carrier
	// itself accesses (store=parked names Worker.parked).
	storeFns := map[*funcNode]bool{}
	loadFns := map[*funcNode]bool{}
	words := map[*types.Var]bool{}
	operand := func(d *handshakeDecl, name string, fns []*funcNode, set map[*funcNode]bool) {
		for _, fn := range fns {
			set[fn] = true
		}
		if len(fns) == 0 {
			for _, acc := range l.accessesNamed(d.carrier, name) {
				if acc.atomic {
					words[acc.v] = true
				}
			}
		}
	}
	for _, d := range l.handshakes.decls {
		operand(d, d.store, d.storeFns, storeFns)
		operand(d, d.load, d.loadFns, loadFns)
	}

	for v, accs := range l.accesses {
		disc, _, ok := declDiscipline(v.Type())
		if !ok || disc == "plain" {
			// Plain-declared fields assert "no concurrent access" (audited
			// by abporder); undeclared fields have no atomic contract.
			// Either way they are layout-cold.
			continue
		}
		var cas, write, read, sharedWrite bool
		handshake := words[v]
		for _, acc := range accs {
			if !acc.atomic {
				continue
			}
			if strings.HasPrefix(acc.op, "CompareAndSwap") || strings.HasPrefix(acc.op, "Swap") {
				cas = true
			}
			switch {
			case !acc.write:
				read = true
				handshake = handshake || loadFns[acc.fn]
			case storeFns[acc.fn]:
				// A write inside a store= function is part of the
				// declared protocol even when owner-performed.
				write, handshake = true, true
			default:
				write = true
				sharedWrite = sharedWrite || !(l.owned[acc.fn] && acc.recvDirect)
			}
		}
		switch {
		case cas:
			l.roles[v] = roleCASHot
		case handshake:
			l.roles[v] = roleHandshake
		case write && sharedWrite:
			l.roles[v] = roleSharedHot
		case write:
			l.roles[v] = roleOwnerHot
		case read:
			l.roles[v] = roleReadMost
		}
	}
}

// roleRank orders the roles by severity, roleCold lowest.
var roleRank = map[string]int{roleReadMost: 1, roleOwnerHot: 2, roleSharedHot: 3, roleHandshake: 4, roleCASHot: 5}

// roleOf returns the field's writer role (roleCold when unclassified). A
// field of struct type is as hot as the hottest word inside it, so a
// protocol's word wrapped in a small type of its own (sched's waitWord)
// still counts on the line its holder puts it on.
func (l *layoutAnalysis) roleOf(v *types.Var) string {
	role := l.roles[v.Origin()]
	if st, ok := v.Type().Underlying().(*types.Struct); ok {
		for i := 0; i < st.NumFields(); i++ {
			if r := l.roleOf(st.Field(i)); roleRank[r] > roleRank[role] {
				role = r
			}
		}
	}
	return role
}

// layoutField is one struct field under one size model.
type layoutField struct {
	v    *types.Var
	off  int64
	size int64
	// pad marks a blank field (any type): declared padding, exempt from
	// the role checks and subject to the isolation check instead.
	pad bool
}

// checkStructs walks every named struct declaration and applies the four
// layout checks under each size model, deduplicating findings that both
// models agree on.
func (l *layoutAnalysis) checkStructs() {
	info := l.info

	type finding struct {
		pos    token.Pos
		msg    string
		models []string
	}
	findings := map[string]*finding{}
	add := func(key string, pos token.Pos, arch, msg string) {
		f := findings[key]
		if f == nil {
			f = &finding{pos: pos, msg: msg}
			findings[key] = f
		}
		for _, m := range f.models {
			if m == arch {
				return
			}
		}
		f.models = append(f.models, arch)
	}

	for _, file := range l.pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			obj, ok := info.Defs[ts.Name].(*types.TypeName)
			if !ok || obj == nil {
				return true
			}
			st, ok := obj.Type().Underlying().(*types.Struct)
			if !ok || st.NumFields() == 0 {
				return true
			}
			for i := 0; i < st.NumFields(); i++ {
				if !sizeComputable(st.Field(i).Type(), 0) {
					return true // generic payload field: layout undefined
				}
			}
			sname := ts.Name.Name
			for _, model := range layoutModels {
				fields := structLayout(st, model.sizes)
				l.checkFalseSharing(sname, fields, model.arch, add)
				l.checkPads(sname, fields, model.arch, add)
				l.checkElementPacking(sname, fields, model.sizes, model.arch, add)
				l.checkStraddle(sname, fields, model.arch, add)
			}
			return true
		})
	}

	ordered := make([]*finding, 0, len(findings))
	for _, f := range findings {
		ordered = append(ordered, f)
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].pos != ordered[j].pos {
			return ordered[i].pos < ordered[j].pos
		}
		return ordered[i].msg < ordered[j].msg
	})
	for _, f := range ordered {
		sort.Strings(f.models)
		l.pass.Reportf(f.pos, "%s [%s]", f.msg, strings.Join(f.models, ","))
	}
}

// structLayout computes field offsets and sizes under one model.
func structLayout(st *types.Struct, sizes types.Sizes) []layoutField {
	vars := make([]*types.Var, st.NumFields())
	for i := range vars {
		vars[i] = st.Field(i)
	}
	offs := sizes.Offsetsof(vars)
	out := make([]layoutField, len(vars))
	for i, v := range vars {
		out[i] = layoutField{
			v:    v,
			off:  offs[i],
			size: sizes.Sizeof(v.Type()),
			pad:  v.Name() == "_",
		}
	}
	return out
}

func lineOf(off int64) int64 { return off / cacheLineSize }

// linesOverlap reports whether two fields touch a common cache line.
func linesOverlap(a, b layoutField) bool {
	if a.size == 0 || b.size == 0 {
		return false
	}
	return lineOf(a.off) <= lineOf(b.off+b.size-1) && lineOf(b.off) <= lineOf(a.off+a.size-1)
}

// checkFalseSharing flags pairs of fields on a common line where one side
// arbitrates (CAS/Swap or handshake word) and the other carries any
// atomic traffic at all: every write to the partner invalidates the line
// the arbitration's contenders are spinning on (and an arbitration write
// invalidates the partner's readers). Owner-vs-owner and blind-counter
// clusters are tolerated — co-written statistics sharing a line is the
// idiom, not the bug (DESIGN.md §8 records the over-approximation).
func (l *layoutAnalysis) checkFalseSharing(sname string, fields []layoutField, arch string, add func(string, token.Pos, string, string)) {
	for j := 1; j < len(fields); j++ {
		fj := fields[j]
		if fj.pad {
			continue
		}
		rj := l.roleOf(fj.v)
		for i := 0; i < j; i++ {
			fi := fields[i]
			if fi.pad || !linesOverlap(fi, fj) {
				continue
			}
			ri := l.roleOf(fi.v)
			if ri == roleCold || rj == roleCold {
				continue
			}
			if !arbitrationRole(ri) && !arbitrationRole(rj) {
				continue
			}
			key := fmt.Sprintf("fs:%s.%s/%s", sname, fi.v.Name(), fj.v.Name())
			msg := fmt.Sprintf("false sharing in %s: %s (%s) and %s (%s) share cache line %d; separate them with atomicx.CacheLinePad or waive with //abp:layout-ignore",
				sname, fi.v.Name(), ri, fj.v.Name(), rj, lineOf(fj.off))
			add(key, fj.v.Pos(), arch, msg)
		}
	}
}

// checkPads verifies that every blank pad narrower than a cache line
// still line-aligns the field that follows it. A pad of a full line or
// more (atomicx.CacheLinePad, `_ [64]byte`) always isolates its
// neighbors — the flanking fields end up a full line apart no matter
// their sizes — so only the hand-counted complements need auditing.
func (l *layoutAnalysis) checkPads(sname string, fields []layoutField, arch string, add func(string, token.Pos, string, string)) {
	for i, f := range fields {
		if !f.pad || f.size == 0 || f.size >= cacheLineSize || i+1 >= len(fields) {
			continue
		}
		next := fields[i+1]
		if next.off%cacheLineSize == 0 {
			continue
		}
		key := fmt.Sprintf("pad:%s/%d", sname, i)
		msg := fmt.Sprintf("miscounted pad in %s: the %d-byte pad leaves %s at offset %d, not line-aligned; use atomicx.CacheLinePad, which isolates regardless of neighbor sizes",
			sname, f.size, next.v.Name(), next.off)
		add(key, f.v.Pos(), arch, msg)
	}
}

// checkElementPacking flags slices/arrays whose element type is a
// contention-hot struct (one with an arbitration-hot or written atomic
// field) packing more than one element per line: neighbors written by
// different parties then share lines no pad inside the struct can fix.
// Slices of single atomic wrappers (a []atomicx.SCInt32 of join counters)
// are exempt — a wrapper field is the deliberate dense-array idiom and
// carries its own declared discipline.
func (l *layoutAnalysis) checkElementPacking(sname string, fields []layoutField, sizes types.Sizes, arch string, add func(string, token.Pos, string, string)) {
	for _, f := range fields {
		if f.pad {
			continue
		}
		var elem types.Type
		switch u := f.v.Type().Underlying().(type) {
		case *types.Slice:
			elem = u.Elem()
		case *types.Array:
			elem = u.Elem()
		default:
			continue
		}
		if _, _, isWrapper := declDiscipline(elem); isWrapper {
			continue
		}
		named, ok := elem.(*types.Named)
		if !ok {
			continue
		}
		est, ok := named.Underlying().(*types.Struct)
		if !ok || !sizeComputable(est, 0) {
			continue
		}
		hot := false
		for i := 0; i < est.NumFields(); i++ {
			switch l.roleOf(est.Field(i)) {
			case roleCASHot, roleHandshake, roleSharedHot, roleOwnerHot:
				hot = true
			}
		}
		if !hot {
			continue
		}
		esize := sizes.Sizeof(elem)
		if esize <= 0 || esize%cacheLineSize == 0 {
			continue
		}
		key := fmt.Sprintf("pack:%s.%s", sname, f.v.Name())
		msg := fmt.Sprintf("element packing in %s: %d-byte %s elements of %s pack %d per cache line, so neighbors written by different parties false-share; pad the element to a line multiple or waive with //abp:layout-ignore",
			sname, esize, named.Obj().Name(), f.v.Name(), max(1, cacheLineSize/esize))
		add(key, f.v.Pos(), arch, msg)
	}
}

// checkStraddle flags arbitration-hot words (or aggregates of them, like
// a [2]SCUint64 CAS'd per element) crossing a line boundary: the one CAS
// target the paper's argument prices at a single line then costs two.
func (l *layoutAnalysis) checkStraddle(sname string, fields []layoutField, arch string, add func(string, token.Pos, string, string)) {
	for _, f := range fields {
		if f.pad || f.size == 0 || !arbitrationRole(l.roleOf(f.v)) {
			continue
		}
		if f.off%cacheLineSize+f.size <= cacheLineSize {
			continue
		}
		key := fmt.Sprintf("straddle:%s.%s", sname, f.v.Name())
		msg := fmt.Sprintf("hot CAS word %s of %s straddles cache lines %d and %d (offset %d, size %d); align or pad it onto one line",
			f.v.Name(), sname, lineOf(f.off), lineOf(f.off+f.size-1), f.off, f.size)
		add(key, f.v.Pos(), arch, msg)
	}
}

// sizeComputable reports whether a type's size is defined without knowing
// type arguments: a bare type parameter (or an aggregate containing one)
// has no layout, and structs containing one are skipped entirely. One
// level of pointer/slice/map/chan/func/interface indirection over a type
// parameter is size-known (a pointer is a word regardless of pointee).
func sizeComputable(t types.Type, depth int) bool {
	if depth > 64 {
		return false
	}
	if _, isTP := t.(*types.TypeParam); isTP {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.TypeParam:
		return false
	case *types.Array:
		return sizeComputable(u.Elem(), depth+1)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if !sizeComputable(u.Field(i).Type(), depth+1) {
				return false
			}
		}
		return true
	default:
		return true
	}
}
