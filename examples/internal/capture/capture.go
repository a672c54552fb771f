// Package capture runs an example's main and returns what it printed, for
// the examples' output tests.
package capture

import (
	"io"
	"os"
	"testing"
)

// Stdout runs fn with os.Stdout sent into a pipe and returns what fn wrote
// there. The pipe is drained while fn runs, so fn may print any amount.
func Stdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	fn()
	w.Close()
	return string(<-out)
}
