// Command tool is the user side of the testonly chain. It lives outside
// any internal/ path, so testonly does not judge it; its uses keep def's
// objects alive.
package main

import (
	"errors"
	"flag"
	"fmt"

	"testonly/internal/def"
)

// area is the interface the tool plans with.
type area interface{ Area() float64 }

func main() {
	var level def.Level
	flag.Var(&level, "level", "verbosity")
	var a area = def.NewShape(float64(def.Used()))
	def.Revived()
	fmt.Println(a.Area(), errors.Is(errors.New("x"), nil), def.NewMemo())
}
