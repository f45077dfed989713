//go:build !go1.23

package des

// The process driver in proc.go switches processes with iter.Pull,
// which needs Go 1.23 or later. Older toolchains stop here with an
// error that names the requirement instead of "undefined: Proc".
var _ = des_requires_go1_23_for_iter_Pull
