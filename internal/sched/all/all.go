// Package all registers every scheduler policy of the repository with
// the central registry. Blank-import it wherever schedulers are
// resolved by name:
//
//	import _ "multiprio/internal/sched/all"
package all

import (
	_ "multiprio/internal/core"
	_ "multiprio/internal/sched/dmdas"
	_ "multiprio/internal/sched/eager"
	_ "multiprio/internal/sched/heft"
	_ "multiprio/internal/sched/heteroprio"
	_ "multiprio/internal/sched/lws"
	_ "multiprio/internal/sched/prio"
)
