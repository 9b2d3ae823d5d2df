// Package engines links every optimizer into the search registry. Blank-
// import it to select any algorithm by name:
//
//	import _ "sacga/internal/search/engines"
//
//	eng, err := search.New("mesacga")
//
// Callers that import an engine package directly (for its Params extension
// struct) get that engine registered as a side effect; this package exists
// for the ones that dispatch purely by string.
package engines

import (
	_ "sacga/internal/mesacga"
	_ "sacga/internal/nsga2"
	_ "sacga/internal/sacga"
	_ "sacga/internal/sched"
	_ "sacga/internal/shard"
)
