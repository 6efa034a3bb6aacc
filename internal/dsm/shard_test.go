package dsm

import (
	"runtime"
	"strconv"
	"testing"
	"time"
)

// insertBytesPerLoc inserts n fresh locations into an empty shard, reading
// each back once (a write followed by a read, the common first touch), and
// returns the heap bytes allocated per location. Keys are built before the
// measurement so only the shard's own allocations count.
func insertBytesPerLoc(n int) float64 {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = "loc" + strconv.Itoa(i)
	}
	var sh shard
	sh.init()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, k := range keys {
		sh.cellFor(k).pram.Store(1)
		if sh.lookup(k) == nil {
			panic("inserted location not found: " + k)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestShardInsertCostIsAmortizedConstant pins inserts at amortized O(1):
// a shard that copied its whole map per new location would allocate about
// eight times as much per insert at 8k locations as at 1k.
func TestShardInsertCostIsAmortizedConstant(t *testing.T) {
	small := insertBytesPerLoc(1 << 10)
	large := insertBytesPerLoc(8 << 10)
	t.Logf("bytes per insert: 1k locations %.0f, 8k locations %.0f", small, large)
	if large > 2*small {
		t.Fatalf("bytes per insert grew from %.0f (1k) to %.0f (8k), want at most 2x", small, large)
	}
}

// TestShardLookupFindsEveryInsertAcrossPromotions checks that a location is
// visible from the moment it is inserted, whether it still sits in the
// overflow map or has been promoted into the read snapshot.
func TestShardLookupFindsEveryInsertAcrossPromotions(t *testing.T) {
	var sh shard
	sh.init()
	const n = 3000
	for i := 0; i < n; i++ {
		k := "k" + strconv.Itoa(i)
		c := sh.cellFor(k)
		c.pram.Store(int64(i))
		if sh.cellFor(k) != c {
			t.Fatalf("second cellFor(%q) returned a different cell", k)
		}
		if i%7 == 0 {
			// Re-read an older location to drive misses and promotions.
			old := "k" + strconv.Itoa(i/2)
			if c := sh.lookup(old); c == nil || c.pram.Load() != int64(i/2) {
				t.Fatalf("lookup(%q) lost the location", old)
			}
		}
	}
	if sh.lookup("never-written") != nil {
		t.Fatal("lookup of an absent location returned a cell")
	}
	r := sh.read.Load()
	if len(r.m)+len(sh.overflow) != n {
		t.Fatalf("snapshot %d + overflow %d locations, want %d", len(r.m), len(sh.overflow), n)
	}
}

// TestSnapshotIncludesOverflow checks that Node.Snapshot reports locations
// that have not yet been promoted out of their shard's overflow map.
func TestSnapshotIncludesOverflow(t *testing.T) {
	nodes := allocCluster(t, true, BatchConfig{})
	n := nodes[0]
	sh := n.shard("fresh")
	// A non-empty snapshot keeps the next insert in overflow.
	for i := 0; i < 4; i++ {
		sh.cellFor("filler" + strconv.Itoa(i))
	}
	n.Write("fresh", 7)
	if sh.read.Load().m["fresh"] != nil {
		t.Fatal("fresh location already promoted; the test needs it in overflow")
	}
	if got := n.Snapshot(false)["fresh"]; got != 7 {
		t.Fatalf("Snapshot[fresh] = %d, want 7", got)
	}
}

// TestAwaitWakesOnOverflowLocation blocks an await on a location that does
// not exist yet, in a shard whose snapshot is large enough that the insert
// stays in the overflow map, and checks that the write wakes it. The await
// loop looks the location up with the shard mutex held, so it must consult
// the overflow map without taking the mutex again.
func TestAwaitWakesOnOverflowLocation(t *testing.T) {
	nodes := allocCluster(t, true, BatchConfig{})
	const loc = "awaited"
	sh := nodes[1].shard(loc)
	// A large promoted snapshot: the awaited location lands in overflow and
	// a handful of locked lookups cannot promote it.
	for i := 0; i < 512; i++ {
		sh.cellFor("filler" + strconv.Itoa(i))
	}
	sh.mu.Lock()
	for sh.read.Load().amended {
		sh.lookupLocked("absent")
	}
	sh.mu.Unlock()

	woke := make(chan struct{})
	go func() {
		nodes[1].AwaitPRAM(loc, 5)
		close(woke)
	}()
	// Let the await register and block before the write arrives.
	deadline := time.Now().Add(5 * time.Second)
	for sh.waiters.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("await never registered")
		}
		time.Sleep(time.Millisecond)
	}
	nodes[0].Write(loc, 5)
	select {
	case <-woke:
	case <-time.After(5 * time.Second):
		t.Fatal("await on an overflow location was not woken")
	}
	if sh.read.Load().m[loc] != nil {
		t.Fatal("awaited location was promoted; the test meant to wake from overflow")
	}
}
