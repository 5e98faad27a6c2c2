// Package lintfix is the fixture module's root package, its public API:
// testonly checks its exported functions and methods, but not its types
// or consts, which name values of public record fields.
package lintfix

// World is built by tuser.
type World struct{ steps int }

// Step is called by tuser.
func (w *World) Step() { w.steps++ }

// Peek has no caller outside tests.
func (w *World) Peek() int { return w.steps } // want `\(\*lintfix.World\).Peek is exported`

// NewWorld is called by tuser.
func NewWorld() *World { return &World{} }

// Convenience has no caller outside tests.
func Convenience() *World { return NewWorld() } // want `lintfix.Convenience is exported`

// Spare is read by nothing, but a root const is out of scope.
const Spare = 2
