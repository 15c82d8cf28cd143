// Package orphan is imported by no package main: loaded beside one it is
// reported once, as a package, not once per function; loaded alone the
// analyzer has no roots and says nothing.
package orphan

func first() int { return second() }

func second() int { return 2 }
