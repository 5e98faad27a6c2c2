// Package tann holds the testref annotations testonly must refuse: one
// without a reason, one on a name non-test code uses, and one in no
// declaration's doc comment. Each sits on a line that cannot also carry a
// want comment, so the test names the expected messages instead.
package tann

//selfstab:testref
func Bare() {}

// Live is called by tuser, so its exemption is stale.
//
//selfstab:testref nothing compares against it any more
func Live() {}

// Pair holds a field, where a testref has no meaning.
type Pair struct {
	//selfstab:testref fields are not reported in the first place
	A int
}
