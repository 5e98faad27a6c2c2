// Package tuser is the non-test importer whose references keep the
// testonly fixtures' names alive. Its own exported names are outside
// internal/ and are never reported.
package tuser

import (
	"fmt"

	"lintfix/internal/tann"
	"lintfix/internal/tonly"
)

// Run references the names that stay.
func Run() {
	var s tonly.Shape = tonly.Square{Side: tonly.Kept}
	fmt.Println(tonly.Used(), s.Area(), s)
	tann.Live()
	_ = tann.Pair{}
}

// Extra is unused, but tuser is not an internal package.
func Extra() {}
