package main

import (
	"fixture/internal/lib"
	"fixture/internal/other"
)

func main() {
	lib.Used()
	_ = lib.Thing{}
	other.Shared()
}
