(** LFS recovery: load the newest checkpoint, roll forward through the
    hot partials written after it, and adjust the usage table for what
    the roll replayed.

    {b What mount trusts.} The checkpoint's usage table: its live
    counts, last-write times and cold bits are taken as written. A
    checkpoint's table counts exactly the blocks reachable from the
    inode map written with it ({!Lfs_writer.checkpoint_record}), so mount
    reads no inode that roll-forward does not touch.

    {b What roll-forward adjusts.} The first time an accepted partial's
    [Data] or [Inode_block] entry touches an inode, the blocks of its
    checkpoint version (data, indirect and double-indirect) leave the
    counts; after the roll, the blocks of its final version come back
    in. Inode-block reference counts are rebuilt from the checkpoint's
    inode map before the roll. As each rolled entry moves an inode to a
    new inode block, or a table chunk to a new address, the count moves
    with it: a block enters the counts with its first reference and
    leaves with its last. None of this needs a read. A count that would go negative raises
    [Invalid_argument] at once. The adjustment stamps neither [mtime]
    nor [last_write]. Mount reads each inode and indirect block at most
    once: one in the payload of a partial whose checksum it verified is
    kept from that read.

    {b Which segments roll-forward visits.} It starts at the hot head
    the checkpoint records, expecting the partial [seq] the checkpoint
    records, and follows the chain: it accepts a summary whose [seq] is
    the one expected, that is not cold, that ends inside its segment
    ({!Layout.ends_in_segment}) and whose payload checksum matches, and
    goes on at {!Layout.next_partial}. At a segment's end it moves to
    the [next_seg] of the last summary accepted (at first, the
    checkpoint's). Where a summary inside a segment fails, it tries the
    start of [next_seg] once, since the writer closes a segment early
    when a partial does not fit its rest; otherwise the log ends there.
    So it visits the checkpoint's head segment and then only segments
    the chain names. It never visits a cold partial, a segment written
    before the checkpoint, or one the chain does not reach.

    {b What a multi-partial atomic flush gets across a crash.} Partials
    that carry [more] are held back until the batch's last partial is
    accepted; then the batch is applied whole. If the log ends inside a
    batch, the batch is discarded whole and the hot head rewound to its
    start, so new writes overwrite it.

    {b The stale chain.} A sealed summary past the recovered head whose
    [seq] continues the log could be taken by a later recovery for the
    log's continuation, once new writes line up before it, so mount
    zeroes each one ([lfs.scrubbed_partials] counts them). They form a
    chain: the writer issues one hot partial at a time, under the
    writer mutex, and each only after the one before it is on disk, so
    the only hot partials written after the last one accepted are a
    discarded atomic batch, each of its partials complete, and at most
    one torn partial after it, in flight at the crash; their [seq]s run
    from the rewound [write_seq] up by one. (Cold partials carry
    [seq = 0], and a summary an earlier recovery left in place had its
    chain scrubbed then.) So the scrub follows them as roll-forward
    follows the log: from the recovered head, a summary with the next
    [seq] that is not cold is zeroed and the chain goes on at
    {!Layout.next_partial}, at a segment's end at that summary's own
    [next_seg], and where a summary inside a segment does not continue
    it, once at the start of [next_seg] (the writer moved there early).
    Roll-forward keeps the summaries it read since the last batch it
    applied, and the scrub takes them from there: with nothing stale it
    reads no block, and it reads a discarded batch's summaries only
    once. *)

val mount : Diskset.t -> Clock.t -> Stats.t -> Config.t -> Lfs_writer.t
(** As {!Lfs.mount}. *)

val install_checkpoint : Lfs_writer.t -> Layout.checkpoint -> unit
(** Install a checkpoint record: the hot head, the table chunk
    addresses and the inode map it records. Mount and the snapshot view
    share this. @raise Vfs.Error [Invalid] if the record's tables do not
    match the geometry. *)

val test_disable_payload_check : bool ref
(** As {!Lfs.test_disable_payload_check}. *)
