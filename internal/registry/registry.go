// Package registry is the one name-keyed table behind every pluggable kind
// of the repo: strategies (internal/core), dataset profiles
// (internal/video), scenarios (internal/scenario), cloud scheduling
// policies and replica routers (internal/cloud). Each package wraps a Table
// with its own Register/lookup entry points and value checks; the table
// owns the locking, the registration order, case-insensitive name and
// alias resolution and the unknown-name error text.
package registry

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Entry is one registered value with its names.
type Entry[V any] struct {
	// Name is the display name; listings print it as registered.
	Name string
	// Aliases are extra spellings that resolve to the entry.
	Aliases []string
	// Summary is a one-line description for help text and reports.
	Summary string
	// Value is what the name resolves to: a factory, a descriptor, a spec.
	Value V
}

// Table is a mutex-guarded, registration-ordered set of entries. Names and
// aliases are unique case-insensitively; lookups also trim spaces. The
// zero value is not usable: build one with New.
type Table[V any] struct {
	prefix, noun string

	mu      sync.RWMutex
	entries []Entry[V]
	index   map[string]int // lower-cased name or alias -> entry index
}

// New returns an empty table whose errors read "<prefix>: unknown <noun>
// ..." and "<prefix>: <noun> name ... already registered".
func New[V any](prefix, noun string) *Table[V] {
	return &Table[V]{prefix: prefix, noun: noun, index: make(map[string]int)}
}

// Add registers e and returns its index (registration order, from 0). It
// rejects a blank name or alias, one with leading or trailing spaces (no
// lookup could reach it), and one that clashes with a registered name or
// alias or with another name of e.
func (t *Table[V]) Add(e Entry[V]) (int, error) {
	names := append([]string{e.Name}, e.Aliases...)
	keys := make([]string, 0, len(names))
	for _, n := range names {
		if n == "" || strings.TrimSpace(n) != n {
			return 0, fmt.Errorf("%s: %s name %q is blank or padded with spaces", t.prefix, t.noun, n)
		}
		key := strings.ToLower(n)
		if slices.Contains(keys, key) {
			return 0, fmt.Errorf("%s: %s name %q given twice", t.prefix, t.noun, n)
		}
		keys = append(keys, key)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for j, key := range keys {
		if _, dup := t.index[key]; dup {
			return 0, fmt.Errorf("%s: %s name %q already registered", t.prefix, t.noun, names[j])
		}
	}
	i := len(t.entries)
	t.entries = append(t.entries, e)
	for _, key := range keys {
		t.index[key] = i
	}
	return i, nil
}

// At returns the value registered at index i.
func (t *Table[V]) At(i int) (V, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if i < 0 || i >= len(t.entries) {
		var zero V
		return zero, false
	}
	return t.entries[i].Value, true
}

// Lookup resolves a name or alias, ignoring case and surrounding spaces,
// to its index and value. The lock is released before Lookup returns, so a
// caller may run a factory value that itself registers into the table.
func (t *Table[V]) Lookup(name string) (int, V, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if i, ok := t.index[strings.ToLower(strings.TrimSpace(name))]; ok {
		return i, t.entries[i].Value, nil
	}
	known := make([]string, len(t.entries))
	for i, e := range t.entries {
		known[i] = strings.ToLower(e.Name)
	}
	sort.Strings(known)
	var zero V
	return 0, zero, fmt.Errorf("%s: unknown %s %q (want %s)", t.prefix, t.noun, name, strings.Join(known, ", "))
}

// Entries returns a copy of every entry in registration order.
func (t *Table[V]) Entries() []Entry[V] {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]Entry[V](nil), t.entries...)
}

// Len returns the number of registered entries.
func (t *Table[V]) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.entries)
}
