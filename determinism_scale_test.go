//go:build !race

package shoggoth_test

// megaFleetDevices sizes TestDeterminismMatrix's scale-1m row: the full
// million-device fleet in plain test runs. The -race build (CI's `go test
// -race ./...`) swaps in a 50k fleet — the race detector's per-access
// instrumentation makes a 1M double-run take tens of minutes while finding
// nothing a 50k run would not.
const megaFleetDevices = 1_000_000
