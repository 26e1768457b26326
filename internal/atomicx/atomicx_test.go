package atomicx

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestSCUint32 exercises every SCUint32 operation.
func TestSCUint32(t *testing.T) {
	var x SCUint32
	x.Store(7)
	if got := x.Load(); got != 7 {
		t.Fatalf("Load = %d, want 7", got)
	}
	if got := x.Add(3); got != 10 {
		t.Fatalf("Add = %d, want 10", got)
	}
	if !x.CompareAndSwap(10, 11) || x.CompareAndSwap(10, 12) {
		t.Fatal("CompareAndSwap: success/failure arms inverted")
	}
}

func TestSCUint64(t *testing.T) {
	var x SCUint64
	x.Store(1 << 40)
	if got := x.Add(2); got != 1<<40+2 {
		t.Fatalf("Add = %d", got)
	}
	if !x.CompareAndSwap(1<<40+2, 5) || x.Load() != 5 {
		t.Fatal("CompareAndSwap/Load mismatch")
	}
}

func TestSCInt32(t *testing.T) {
	var x SCInt32
	x.Store(-4)
	if got := x.Add(1); got != -3 {
		t.Fatalf("Add = %d, want -3", got)
	}
	if !x.CompareAndSwap(-3, 9) || x.Load() != 9 {
		t.Fatal("CompareAndSwap/Load mismatch")
	}
}

func TestSCInt64(t *testing.T) {
	var x SCInt64
	x.Store(1)
	if got := x.Add(-2); got != -1 {
		t.Fatalf("Add = %d, want -1", got)
	}
	if !x.CompareAndSwap(-1, 6) || x.Load() != 6 {
		t.Fatal("CompareAndSwap/Load mismatch")
	}
}

func TestSCPointer(t *testing.T) {
	var x SCPointer[int]
	if x.Load() != nil {
		t.Fatal("zero value not nil")
	}
	a, b := new(int), new(int)
	x.Store(a)
	if got := x.Swap(b); got != a {
		t.Fatal("Swap did not return previous value")
	}
	if !x.CompareAndSwap(b, a) || x.CompareAndSwap(b, a) {
		t.Fatal("CompareAndSwap: success/failure arms inverted")
	}
}

func TestPublish32(t *testing.T) {
	var x Publish32
	x.Store(42)
	if got := x.Load(); got != 42 {
		t.Fatalf("Load = %d, want 42", got)
	}
}

func TestPublish64(t *testing.T) {
	var x Publish64
	x.Store(5)
	if got := x.Add(2); got != 7 {
		t.Fatalf("Add = %d, want 7", got)
	}
}

func TestPublishUint64(t *testing.T) {
	var x PublishUint64
	x.Store(1 << 50)
	if got := x.Load(); got != 1<<50 {
		t.Fatalf("Load = %d", got)
	}
}

func TestPublishPointer(t *testing.T) {
	var x PublishPointer[string]
	s := "hello"
	x.Store(&s)
	if got := x.Load(); got != &s {
		t.Fatal("Load != stored pointer")
	}
}

// TestZeroOverheadInlining shells out to the compiler with -gcflags=-m and
// asserts every non-generic method is inlinable, so declaring a discipline
// through atomicx costs nothing over raw sync/atomic. Generic methods are
// excluded: the compiler reports their inlinability per instantiation at
// use sites, not when compiling the defining package.
func TestZeroOverheadInlining(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping compiler invocation in -short mode")
	}
	cmd := exec.Command("go", "build", "-gcflags=-m", ".")
	cmd.Dir = "."
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	diag := string(out)
	methods := []string{
		"(*SCUint32).Load", "(*SCUint32).Store", "(*SCUint32).Add",
		"(*SCUint32).CompareAndSwap",
		"(*SCUint64).Load", "(*SCUint64).Store", "(*SCUint64).Add",
		"(*SCUint64).CompareAndSwap",
		"(*SCInt32).Load", "(*SCInt32).Store", "(*SCInt32).Add",
		"(*SCInt32).CompareAndSwap",
		"(*SCInt64).Load", "(*SCInt64).Store", "(*SCInt64).Add",
		"(*SCInt64).CompareAndSwap",
		"(*Publish32).Load", "(*Publish32).Store",
		"(*Publish64).Load", "(*Publish64).Store", "(*Publish64).Add",
		"(*PublishUint64).Load", "(*PublishUint64).Store",
	}
	for _, m := range methods {
		if !strings.Contains(diag, "can inline "+m) {
			t.Errorf("method %s is not reported inlinable", m)
		}
	}
}
