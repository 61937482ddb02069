package stream

import "xcql/internal/xq"

// ItemKey forwards to xq.ItemKey, the delta identity of one result item.
// It stays because the benchmark module (bench/standing.go) calls it.
func ItemKey(it xq.Item) string { return xq.ItemKey(it) }
