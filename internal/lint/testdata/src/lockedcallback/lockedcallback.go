// Package lockedcallback is the lockedcallback analyzer's golden fixture:
// no callback invocation or channel send while an engine mutex is held.
package lockedcallback

import "sync"

// Observer is the repo's observer convention: notification methods are On*.
type Observer interface {
	OnResult(v int)
	Name() string
}

// Engine is the reference shape: a mutex guarding subscriber lists.
type Engine struct {
	mu   sync.Mutex
	subs []func(int)
	ch   chan int
	n    int
}

// badDirect invokes subscriber callbacks under the lock.
func (e *Engine) badDirect(v int) {
	e.mu.Lock()
	for _, cb := range e.subs {
		cb(v) // want `callback "cb" invoked while e\.mu is held`
	}
	e.mu.Unlock()
}

// badDefer holds the lock to function end via defer.
func (e *Engine) badDefer(o Observer, v int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.n += v
	o.OnResult(v) // want `observer method .*\.OnResult invoked while e\.mu is held`
}

// badSend pushes into a channel under the lock.
func (e *Engine) badSend(v int) {
	e.mu.Lock()
	e.ch <- v // want `channel send while e\.mu is held`
	e.mu.Unlock()
}

// earlyReturnUnlock: the unlock in the terminating branch must not clear the
// fallthrough path.
func (e *Engine) earlyReturnUnlock(cb func(int), v int) {
	e.mu.Lock()
	if v == 0 {
		e.mu.Unlock()
		return
	}
	cb(v) // want `callback "cb" invoked while e\.mu is held`
	e.mu.Unlock()
}

// goodDeferred is the sanctioned shape: select under the lock, dispatch
// after unlocking (a cloud replica's onDispatch).
func (e *Engine) goodDeferred(v int) {
	e.mu.Lock()
	ready := append(e.subs[:0:0], e.subs...)
	e.mu.Unlock()
	for _, cb := range ready {
		cb(v)
	}
}

// goodMethod: static calls into the engine's own code stay legal.
func (e *Engine) goodMethod(v int) {
	e.mu.Lock()
	e.bump(v)
	e.mu.Unlock()
}

func (e *Engine) bump(v int) { e.n += v }

// goodNamed: interface methods outside the On* convention are queries, not
// notifications.
func (e *Engine) goodNamed(o Observer) string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return o.Name()
}

// goodGoroutine: the spawned goroutine escapes the critical section.
func (e *Engine) goodGoroutine(cb func(int), v int) {
	e.mu.Lock()
	go func() { cb(v) }()
	e.mu.Unlock()
}

// allowed: a justified in-lock dispatch.
func (e *Engine) allowed(cb func()) {
	e.mu.Lock()
	//shoggoth:allow lockedcallback -- fixture: callback documented reentrancy-safe and non-blocking
	cb()
	e.mu.Unlock()
}
