//go:build !unix

package fsys

import "os"

// localStamp is a local file's identity where the platform reports no inode:
// its mtime in nanoseconds.
func localStamp(info os.FileInfo) int64 { return info.ModTime().UnixNano() }
