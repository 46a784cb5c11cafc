// Package plru implements the replacement-policy state machines used by
// the cache models: tree-based pseudo-LRU (what the paper uses for the
// LLC tag array and the base cache) and true LRU (used for L1/L2 per
// Table 1). The state lives in flat arrays owned by the caller — one
// uint64 of tree bits per set, or one recency order of ways per set — and
// these functions update it, so a cache holds no per-set objects and a
// cleared array is the fresh state.
package plru

import "fmt"

// Check reports whether policy ("lru" or "plru") can manage sets of the
// given associativity: tree PLRU needs a power of two between 1 and 64,
// and the uint8 recency order of LRU at most 256 ways.
func Check(policy string, ways int) error {
	switch policy {
	case "plru":
		if ways <= 0 || ways > 64 || ways&(ways-1) != 0 {
			return fmt.Errorf("plru: tree PLRU requires power-of-two ways in [1,64], got %d", ways)
		}
	case "lru":
		if ways <= 0 || ways > 256 {
			return fmt.Errorf("plru: LRU requires ways in [1,256], got %d", ways)
		}
	default:
		return fmt.Errorf("plru: unknown policy %q", policy)
	}
	return nil
}

// TreeTouch marks way as most recently used in a set's tree bits: every
// node on the root-to-leaf path is pointed away from the touched leaf.
// Node i's bit sits at position i, root at 1 (heap layout); a set bit
// means the victim lies in the right half. Zero bits are the fresh state.
func TreeTouch(bits *uint64, ways, way int) {
	if uint(way) >= uint(ways) {
		panic("plru: Touch way out of range")
	}
	node := 1
	for span := ways; span > 1; span /= 2 {
		half := span / 2
		if way < half {
			*bits |= 1 << uint(node)
			node = node * 2
		} else {
			*bits &^= 1 << uint(node)
			node = node*2 + 1
			way -= half
		}
	}
}

// TreeVictim walks a set's tree bits toward the pseudo-least-recently-
// used leaf.
func TreeVictim(bits uint64, ways int) int {
	node := 1
	way := 0
	for span := ways; span > 1; span /= 2 {
		half := span / 2
		if bits&(1<<uint(node)) == 0 {
			node = node * 2
		} else {
			node = node*2 + 1
			way += half
		}
	}
	return way
}

// InitLRU writes the fresh recency order of one set: order[0] is the
// most recently used way, so way len(order)-1 is the first victim.
func InitLRU(order []uint8) {
	for i := range order {
		order[i] = uint8(i)
	}
}

// LRUTouch moves way to the front of a set's recency order.
func LRUTouch(order []uint8, way int) {
	if uint(way) >= uint(len(order)) {
		panic("plru: Touch way out of range")
	}
	p := 0
	for int(order[p]) != way {
		p++
	}
	copy(order[1:p+1], order[:p])
	order[0] = uint8(way)
}

// LRUVictim returns the least recently used way of a set.
func LRUVictim(order []uint8) int { return int(order[len(order)-1]) }
