package cluster

import "hash/crc32"

// crcTable and bodyGrowStep restate two facts of internal/container's record
// layer for this package's hand-built frames (rawFrame) and read-boundary
// cuts: a frame's checksum is CRC32-IEEE, and a body buffer first grows by
// 1 MiB.
var crcTable = crc32.IEEETable

const bodyGrowStep = 1 << 20
