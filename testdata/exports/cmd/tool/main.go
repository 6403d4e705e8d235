package main

import "fixture/internal/lib"

func main() {
	lib.Used()
	_ = lib.Thing{}
}
