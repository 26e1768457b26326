//go:build abpsync

// The counting build of package atomicx (go build -tags abpsync): the same
// types and methods as atomicx.go, each of which also counts the operation
// it issues — a load, a store, or a read-modify-write (Add, Swap,
// CompareAndSwap) — in program-wide counters that SyncCounts reads. On
// amd64 every store and every read-modify-write is a fence, so their sum
// is the synchronization cost a path pays, as an exact count that host
// noise cannot move (internal/sched's cost table, testdata/costs.golden,
// pins it). The counters are sync/atomic words of their own, outside the
// count.
package atomicx

import "sync/atomic"

var loads, stores, rmws atomic.Int64

// SyncOps is a snapshot of the counters: the operations every wrapper of
// this package has issued since the program started.
type SyncOps struct{ Loads, Stores, RMWs int64 }

// SyncCounts returns the counters.
func SyncCounts() SyncOps {
	return SyncOps{Loads: loads.Load(), Stores: stores.Load(), RMWs: rmws.Load()}
}

// Sub returns the operations issued between prev and s.
func (s SyncOps) Sub(prev SyncOps) SyncOps {
	return SyncOps{Loads: s.Loads - prev.Loads, Stores: s.Stores - prev.Stores, RMWs: s.RMWs - prev.RMWs}
}

// Fences is the stores and read-modify-writes: each is a fence on amd64.
func (s SyncOps) Fences() int64 { return s.Stores + s.RMWs }

func countLoad()  { loads.Add(1) }
func countStore() { stores.Add(1) }
func countRMW()   { rmws.Add(1) }

// CacheLineSize is atomicx.go's.
const CacheLineSize = 64

// CacheLinePad is atomicx.go's.
type CacheLinePad struct{ _ [CacheLineSize]byte }

// SCUint32 counts atomicx.go's.
type SCUint32 struct{ v uint32 }

func (x *SCUint32) Load() uint32        { countLoad(); return atomic.LoadUint32(&x.v) }
func (x *SCUint32) Store(v uint32)      { countStore(); atomic.StoreUint32(&x.v, v) }
func (x *SCUint32) Add(d uint32) uint32 { countRMW(); return atomic.AddUint32(&x.v, d) }
func (x *SCUint32) CompareAndSwap(old, new uint32) bool {
	countRMW()
	return atomic.CompareAndSwapUint32(&x.v, old, new)
}

// SCUint64 counts atomicx.go's.
type SCUint64 struct{ v uint64 }

func (x *SCUint64) Load() uint64        { countLoad(); return atomic.LoadUint64(&x.v) }
func (x *SCUint64) Store(v uint64)      { countStore(); atomic.StoreUint64(&x.v, v) }
func (x *SCUint64) Add(d uint64) uint64 { countRMW(); return atomic.AddUint64(&x.v, d) }
func (x *SCUint64) CompareAndSwap(old, new uint64) bool {
	countRMW()
	return atomic.CompareAndSwapUint64(&x.v, old, new)
}

// SCInt32 counts atomicx.go's.
type SCInt32 struct{ v int32 }

func (x *SCInt32) Load() int32       { countLoad(); return atomic.LoadInt32(&x.v) }
func (x *SCInt32) Store(v int32)     { countStore(); atomic.StoreInt32(&x.v, v) }
func (x *SCInt32) Add(d int32) int32 { countRMW(); return atomic.AddInt32(&x.v, d) }
func (x *SCInt32) CompareAndSwap(old, new int32) bool {
	countRMW()
	return atomic.CompareAndSwapInt32(&x.v, old, new)
}

// SCInt64 counts atomicx.go's.
type SCInt64 struct{ v int64 }

func (x *SCInt64) Load() int64       { countLoad(); return atomic.LoadInt64(&x.v) }
func (x *SCInt64) Store(v int64)     { countStore(); atomic.StoreInt64(&x.v, v) }
func (x *SCInt64) Add(d int64) int64 { countRMW(); return atomic.AddInt64(&x.v, d) }
func (x *SCInt64) CompareAndSwap(old, new int64) bool {
	countRMW()
	return atomic.CompareAndSwapInt64(&x.v, old, new)
}

// SCPointer counts atomicx.go's.
type SCPointer[T any] struct{ p atomic.Pointer[T] }

func (x *SCPointer[T]) Load() *T     { countLoad(); return x.p.Load() }
func (x *SCPointer[T]) Store(v *T)   { countStore(); x.p.Store(v) }
func (x *SCPointer[T]) Swap(v *T) *T { countRMW(); return x.p.Swap(v) }
func (x *SCPointer[T]) CompareAndSwap(old, new *T) bool {
	countRMW()
	return x.p.CompareAndSwap(old, new)
}

// Publish32 counts atomicx.go's.
type Publish32 struct{ v int32 }

func (x *Publish32) Load() int32   { countLoad(); return atomic.LoadInt32(&x.v) }
func (x *Publish32) Store(v int32) { countStore(); atomic.StoreInt32(&x.v, v) }

// Publish64 counts atomicx.go's.
type Publish64 struct{ v int64 }

func (x *Publish64) Load() int64       { countLoad(); return atomic.LoadInt64(&x.v) }
func (x *Publish64) Store(v int64)     { countStore(); atomic.StoreInt64(&x.v, v) }
func (x *Publish64) Add(d int64) int64 { countRMW(); return atomic.AddInt64(&x.v, d) }

// PublishUint64 counts atomicx.go's.
type PublishUint64 struct{ v uint64 }

func (x *PublishUint64) Load() uint64   { countLoad(); return atomic.LoadUint64(&x.v) }
func (x *PublishUint64) Store(v uint64) { countStore(); atomic.StoreUint64(&x.v, v) }

// PublishPointer counts atomicx.go's.
type PublishPointer[T any] struct{ p atomic.Pointer[T] }

func (x *PublishPointer[T]) Load() *T   { countLoad(); return x.p.Load() }
func (x *PublishPointer[T]) Store(v *T) { countStore(); x.p.Store(v) }
