//go:build unix

package fsys

import (
	"os"
	"syscall"
)

// localStamp is a local file's identity from the stat a listing makes: its
// mtime in nanoseconds mixed with its inode, so a file replaced by a rename
// within one timestamp tick still gets a new stamp. A rewrite in place within
// one tick keeps its stamp (DESIGN.md "Hierarchical caching").
func localStamp(info os.FileInfo) int64 {
	stamp := info.ModTime().UnixNano()
	if st, ok := info.Sys().(*syscall.Stat_t); ok {
		stamp ^= int64(uint64(st.Ino) * 0x9E3779B97F4A7C15) // 2^64/phi spreads the inode over every bit
	}
	return stamp
}
