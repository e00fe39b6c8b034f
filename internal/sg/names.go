package sg

import "hash/maphash"

// nameIndex finds events by name. It is an open-addressed table of
// event IDs, probed linearly from a hash of the name, and holds no
// pointers, so the collector never scans it. The names themselves live
// elsewhere (a builder's arena, a graph's events), and a probe compares
// the key with the name of each ID it meets, from the hash's home slot
// to the first empty one. The hash seed is drawn per builder: names
// read from uploaded text cannot be chosen to collide.
type nameIndex struct {
	seed  maphash.Seed
	slots []int32 // 1 + the ID of the event stored there, or 0; len is a power of two
}

// indexSize is the table length for n names: a power of two at least
// twice n, so that probe runs stay short.
func indexSize(n int) int {
	size := 8
	for size < 2*n {
		size <<= 1
	}
	return size
}

func newNameIndex(n int) nameIndex {
	return nameIndex{seed: maphash.MakeSeed(), slots: make([]int32, indexSize(n))}
}

// hashName hashes a name given as a string or as bytes; both forms of
// the same name hash alike.
func hashName[S string | []byte](seed maphash.Seed, name S) uint64 {
	if b, ok := any(name).([]byte); ok {
		return maphash.Bytes(seed, b)
	}
	return maphash.String(seed, string(name))
}

// home is the first slot probed for hash h.
func (x *nameIndex) home(h uint64) int { return int(h) & (len(x.slots) - 1) }

// next is the slot probed after slot i.
func (x *nameIndex) next(i int) int { return (i + 1) & (len(x.slots) - 1) }

// place stores id in the first empty slot from hash h's home; the name
// must not be stored yet.
func (x *nameIndex) place(h uint64, id EventID) {
	i := x.home(h)
	for x.slots[i] != 0 {
		i = x.next(i)
	}
	x.slots[i] = int32(id) + 1
}
