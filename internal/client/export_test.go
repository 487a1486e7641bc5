package client

import "repro/internal/wire"

// SetBuiltHook makes f see every message a client builds to send more
// than once, and returns a func that removes it.
func SetBuiltHook(f func(wire.Message)) (restore func()) {
	prev := builtHook
	builtHook = f
	return func() { builtHook = prev }
}
