module godtfe/bench/e2e

go 1.22

require godtfe v0.0.0

replace godtfe => ../..
