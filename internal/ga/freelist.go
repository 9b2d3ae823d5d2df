package ga

import "sync"

// freeList is a mutex-guarded stack of recycled objects. Unlike a
// sync.Pool it keeps its contents across garbage collections, so warmed
// buffers stay warm and the steady-state paths that draw from it stay
// allocation-free.
type freeList[T any] struct {
	mu   sync.Mutex
	free []*T
}

// get pops a recycled object, or returns a new zero one when the list is
// empty.
func (l *freeList[T]) get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	k := len(l.free)
	if k == 0 {
		return new(T)
	}
	x := l.free[k-1]
	l.free[k-1] = nil
	l.free = l.free[:k-1]
	return x
}

// put pushes x for a later get.
func (l *freeList[T]) put(x *T) {
	l.mu.Lock()
	l.free = append(l.free, x)
	l.mu.Unlock()
}
