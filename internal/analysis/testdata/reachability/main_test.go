package main

import "testing"

// A test is never a root: calling onlyTestsCallThis here reaches nothing.
func TestOnlyTestsCallThis(t *testing.T) {
	if onlyTestsCallThis() != 42 {
		t.Fatal("wrong")
	}
}
