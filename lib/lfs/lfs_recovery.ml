open Lfs_writer

let k_discarded_batches = Stats.counter "lfs.discarded_batches"
let k_mounts = Stats.counter "lfs.mounts"
let k_rolled_partials = Stats.counter "lfs.rolled_partials"
let k_scrubbed_partials = Stats.counter "lfs.scrubbed_partials"

(* Mount: load the newest checkpoint, roll forward, adjust usage. *)

let load_checkpoint t =
  let r0, r1 = Layout.checkpoint_blknos in
  let cp0 = Layout.read_checkpoint (Diskset.read t.disk r0) in
  let cp1 = Layout.read_checkpoint (Diskset.read t.disk r1) in
  match (cp0, cp1) with
  | None, None -> Vfs.error Invalid "LFS mount: no valid checkpoint"
  | Some cp, None | None, Some cp -> cp
  | Some a, Some b -> if a.Layout.cp_seq >= b.Layout.cp_seq then a else b

(* Install checkpoint [cp]: the log head, the table chunk addresses and
   the inode map it records. Mount and the snapshot view share this. *)
let install_checkpoint t (cp : Layout.checkpoint) =
  if
    Array.length cp.imap_addrs <> Array.length t.imap_chunk_addr
    || Array.length cp.usage_addrs <> Array.length t.usage_chunk_addr
  then Vfs.error Invalid "LFS: checkpoint table sizes do not match the geometry";
  t.cp_seq <- cp.cp_seq;
  t.cur_seg <- cp.cur_seg;
  t.cur_off <- cp.cur_off;
  t.next_seg <- cp.cp_next_seg;
  t.files.next_inum <- cp.next_inum;
  t.write_seq <- cp.write_seq;
  Array.blit cp.imap_addrs 0 t.imap_chunk_addr 0 (Array.length cp.imap_addrs);
  Array.blit cp.usage_addrs 0 t.usage_chunk_addr 0 (Array.length cp.usage_addrs);
  Array.iteri
    (fun chunk addr ->
      if addr <> 0 then
        Layout.read_imap_chunk (Diskset.read t.disk addr) ~chunk ~n:max_inodes
          (fun inum e ->
            t.imap_addr.(inum) <- e.Layout.addr;
            t.imap_slot.(inum) <- e.Layout.slot;
            t.imap_alloc.(inum) <- e.Layout.alloc))
    t.imap_chunk_addr

(* Test-only hook: when set, roll-forward trusts a summary without
   verifying the checksum of its payload blocks — reintroducing the
   torn-commit bug the checksum exists to catch. The fault-injection
   sweep must then report durability violations, which is how the test
   suite proves the oracle is able to fail. *)
let test_disable_payload_check = ref false

(* Every block [ino] maps: data, indirect and double-indirect. *)
let iter_blocks t ino f =
  Inode.iter_block_addrs ino ~block_size:(block_size t) (fun _ _ addr -> f addr)

(* One more live block at [addr]. Mount moves counts and writes no data,
   so unlike [inc_usage] this stamps neither [mtime] nor [last_write]:
   the age signal survives remounts only through the table. *)
let add_live t addr =
  if addr >= Layout.data_start then begin
    let u = t.usage.(seg_of_addr t addr) in
    u.live <- u.live + 1
  end

(* One more inode in the inode block at [addr]; the block comes alive
   with its first. *)
let add_inode_block_ref t addr =
  match Hashtbl.find_opt t.inode_block_refs addr with
  | Some n -> Hashtbl.replace t.inode_block_refs addr (n + 1)
  | None ->
    Hashtbl.add t.inode_block_refs addr 1;
    add_live t addr

(* Mount loads inodes through [read_once t seen], which reads each
   block at most once, keeping it in [seen]. Roll-forward reloads an
   inode after every inode block of it that it replays, and an inode's
   checkpoint version shares its unchanged indirect blocks with its
   final one; it also puts in [seen] the metadata blocks of each payload
   it checksums, which it has read already. Mount writes none of these
   blocks. *)
let read_once t seen addr =
  match Hashtbl.find_opt seen addr with
  | Some b -> b
  | None ->
    let b = Diskset.read t.disk addr in
    Hashtbl.add seen addr b;
    b

(* Keep in [seen] the blocks of [s]'s inode and indirect entries, from
   its payload run [b] at [boff]. *)
let keep_metadata t seen ~blkno (s : Layout.summary) b boff =
  let bs = block_size t in
  List.iteri
    (fun i entry ->
      match entry with
      | Layout.Inode_block _ | Layout.Indirect _ | Layout.Double_indirect _ ->
        Hashtbl.replace seen (Layout.entry_block ~pos:blkno i)
          (Bytes.sub b (boff + (i * bs)) bs)
      | Layout.Imap_block _ | Layout.Usage_block _ | Layout.Data _ -> ())
    s.Layout.entries

(* Roll forward from the installed checkpoint; returns the inode numbers
   the applied partials touched, in the order first touched. The live
   counts and [inode_block_refs] come in as the checkpoint left them,
   and move with each entry applied: an inode block or table chunk
   counts at its new address instead of its old one. The first time an
   entry touches an inode, the blocks of its checkpoint version leave
   the counts; [settle_usage] adds those of its final version after the
   roll. [seen] is the mount's block cache ({!read_once}). *)
let roll_forward t ~seen =
  let read = read_once t seen in
  let iget_opt = iget_opt ~read t in
  let touched = Hashtbl.create 16 and order = ref [] in
  let move_chunk addrs index addr =
    dec_usage t addrs.(index);
    add_live t addr;
    addrs.(index) <- addr
  in
  let touch inum =
    if not (Hashtbl.mem touched inum) then begin
      Hashtbl.add touched inum ();
      order := inum :: !order;
      (* Nothing has changed this inode's imap entry yet, so this loads
         the version the checkpoint counted. *)
      Option.iter (fun ino -> iter_blocks t ino (dec_usage t)) (iget_opt inum)
    end
  in
  (* Follow the chain of partial segments written after the checkpoint,
     applying inode locations; stop at the first gap in the sequence. *)
  let apply blkno (s : Layout.summary) =
    List.iteri
      (fun i entry ->
        let addr = Layout.entry_block ~pos:blkno i in
        match entry with
        | Layout.Inode_block { inums } ->
          List.iteri
            (fun slot inum ->
              if inum > 0 && inum < max_inodes then begin
                touch inum;
                if t.imap_alloc.(inum) then dec_inode_block_ref t t.imap_addr.(inum);
                add_inode_block_ref t addr;
                t.imap_addr.(inum) <- addr;
                t.imap_slot.(inum) <- slot;
                t.imap_alloc.(inum) <- true;
                (* Any inode loaded earlier in this scan is stale now:
                   the block written later in the log wins. *)
                Fileops.Itbl.remove t.files.inodes inum;
                if inum >= t.files.next_inum then t.files.next_inum <- inum + 1
              end)
            inums
        | Layout.Imap_block { index } -> move_chunk t.imap_chunk_addr index addr
        | Layout.Usage_block { index } -> move_chunk t.usage_chunk_addr index addr
        | Layout.Data { inum; lblock } -> (
          (* Commit partials defer their metadata; the summary entry is
             authoritative for the block's new location. *)
          touch inum;
          match iget_opt inum with
          | Some ino ->
            Inode.set_addr ino ~block_size:(block_size t) lblock addr;
            if (lblock + 1) * block_size t > ino.Inode.size then
              ino.Inode.size <- (lblock + 1) * block_size t;
            ino.Inode.dirty <- true
          | None -> () (* file created but its inode never reached disk *))
        | Layout.Indirect _ | Layout.Double_indirect _ -> ())
      s.Layout.entries;
    Stats.bump t.stats k_rolled_partials
  in
  (* A sealed summary only proves the summary block itself persisted; a
     write torn inside the partial leaves it describing garbage. Its
     entries must also end inside its segment, as the cleaner requires:
     no partial the writer lays out spans two. *)
  let payload_ok off blkno (s : Layout.summary) =
    let n = List.length s.Layout.entries in
    Layout.ends_in_segment ~segment_blocks:t.cfg.fs.segment_blocks ~pos:off n
    && (!test_disable_payload_check
       || n = 0
       ||
       let b, boff = Diskset.read_run_view t.disk (Layout.entry_block ~pos:blkno 0) n in
       let ok = Layout.checksum_sub b boff (n * block_size t) = s.Layout.payload_ck in
       if ok then keep_metadata t seen ~blkno s b boff;
       ok)
  in
  (* The summaries read since the last batch was applied, by block: the
     scrub below starts where the roll ended or its batch began, so it
     finds them here instead of reading them again. *)
  let summaries = Hashtbl.create 8 in
  let summary_at blkno =
    match Hashtbl.find_opt summaries blkno with
    | Some s -> s
    | None ->
      let s = Layout.read_summary (Diskset.read t.disk blkno) in
      Hashtbl.replace summaries blkno s;
      s
  in
  let expected = ref t.write_seq in
  let seg = ref t.cur_seg and off = ref t.cur_off in
  let next = ref t.next_seg in
  (* Partials carrying [more] belong to an atomic batch: buffer them and
     apply only when the batch's final partial validates too, so a commit
     spanning several partials is recovered all-or-nothing. *)
  let batch = ref [] in
  let batch_start = ref None in
  let continue = ref true in
  while !continue do
    if !off >= t.cfg.fs.segment_blocks then begin
      seg := !next;
      off := 0
    end;
    let blkno = seg_base t !seg + !off in
    match summary_at blkno with
    (* Cold partials carry seq 0 and can never match [expected] (>= 1);
       the explicit [cold] check makes the exclusion structural rather
       than an accident of sequence numbering. *)
    | Some s
      when Int64.equal s.Layout.seq !expected
           && (not s.Layout.cold)
           && payload_ok !off blkno s ->
      if !batch = [] then batch_start := Some (!seg, !off, !next, !expected);
      batch := (blkno, s) :: !batch;
      if not s.Layout.more then begin
        List.iter (fun (b, p) -> apply b p) (List.rev !batch);
        batch := [];
        batch_start := None;
        Hashtbl.reset summaries
      end;
      expected := Int64.succ !expected;
      off := Layout.next_partial ~pos:!off s;
      next := s.Layout.next_seg
    | Some _ | None ->
      if !off > 0 then begin
        (* Maybe the writer moved to the next segment early. *)
        match summary_at (seg_base t !next) with
        | Some s when Int64.equal s.Layout.seq !expected && not s.Layout.cold ->
          seg := !next;
          off := 0
        | Some _ | None -> continue := false
      end
      else continue := false
  done;
  (match !batch_start with
  | Some (s0, o0, n0, q0) when !batch <> [] ->
    (* The log ended mid-batch: discard it whole and rewind the head so
       new writes overwrite the orphaned partials. *)
    seg := s0;
    off := o0;
    next := n0;
    expected := q0;
    Stats.bump t.stats k_discarded_batches
  | _ -> ());
  t.cur_seg <- !seg;
  t.cur_off <- !off;
  t.next_seg <- !next;
  t.write_seq <- !expected;
  (* Scrub the stale chain: the summaries past the recovered head that
     continue its sequence (a discarded batch, then a torn partial). If
     future writes lined up exactly, a later recovery could take one for
     a live continuation of the log. The chain runs as roll-forward's
     does, but each link moves on at its own [next_seg]. *)
  let zero = Bytes.make (block_size t) '\000' in
  let rec scrub seg off next seq =
    let seg, off = if off >= t.cfg.fs.segment_blocks then (next, 0) else (seg, off) in
    let stale seg off =
      match summary_at (seg_base t seg + off) with
      | Some s when Int64.equal s.Layout.seq seq && not s.Layout.cold -> Some (seg, off, s)
      | Some _ | None -> None
    in
    (* Where the chain breaks inside a segment, the writer may have
       moved to the next segment early. *)
    match (match stale seg off with None when off > 0 -> stale next 0 | found -> found) with
    | Some (seg, off, s) ->
      let blkno = seg_base t seg + off in
      Diskset.write t.disk blkno zero;
      Hashtbl.replace summaries blkno None;
      Hashtbl.remove seen blkno;
      Stats.bump t.stats k_scrubbed_partials;
      scrub seg (Layout.next_partial ~pos:off s) s.Layout.next_seg (Int64.succ seq)
    | None -> ()
  in
  scrub !seg !off !next !expected;
  List.rev !order

(* Rebuild [inode_block_refs] from the inode map. *)
let count_inode_block_refs t =
  let refs = t.inode_block_refs in
  Hashtbl.reset refs;
  for inum = 1 to max_inodes - 1 do
    let addr = t.imap_addr.(inum) in
    if t.imap_alloc.(inum) && addr <> 0 then
      Hashtbl.replace refs addr
        (1 + Option.value ~default:0 (Hashtbl.find_opt refs addr))
  done

(* Finish the live counts after the roll, reading only the inodes it
   touched: the blocks of their final versions come back in. Then the
   segment states follow the counts. *)
let settle_usage t ~read touched =
  List.iter
    (fun inum ->
      Option.iter (fun ino -> iter_blocks t ino (add_live t)) (iget_opt ~read t inum))
    touched;
  Array.iter (fun u -> u.state <- (if u.live > 0 then Dirty else Free)) t.usage;
  t.usage.(t.cur_seg).state <- Current;
  t.usage.(t.next_seg).state <- Current;
  (* States were rebuilt wholesale; re-derive the incremental counters. *)
  t.n_reclaimable <- count_reclaimable t;
  t.n_free <- count_free t

let mount disk clock stats (cfg : Config.t) =
  let sb = Layout.read_superblock (Diskset.read disk Layout.superblock_blkno) in
  if sb.Layout.block_size <> cfg.disk.block_size then
    Vfs.error Invalid "LFS mount: block size mismatch";
  let t = make_empty disk clock stats { cfg with fs = { cfg.fs with segment_blocks = sb.Layout.segment_blocks } } sb in
  install_checkpoint t (load_checkpoint t);
  (* Load the segment usage table: live counts, timestamps and the
     hot/cold bit. The checkpoint wrote counts of exactly the blocks its
     inode map reaches, so only what the roll changes needs adjusting;
     the age signal and segregation survive remounts only through this
     table. *)
  Array.iteri
    (fun chunk addr ->
      if addr <> 0 then
        Layout.read_usage_chunk (Diskset.read t.disk addr) ~chunk ~n:(nsegments t)
          (fun seg e ->
            let u = t.usage.(seg) in
            u.live <- e.Layout.live;
            u.mtime <- e.Layout.mtime;
            u.last_write <- e.Layout.last_write;
            u.cold <- e.Layout.cold))
    t.usage_chunk_addr;
  count_inode_block_refs t;
  let seen = Hashtbl.create 64 in
  let touched = roll_forward t ~seen in
  settle_usage t ~read:(read_once t seen) touched;
  (* Roll-forward can end having followed the log into the reserved next
     segment without learning what the writer reserved after it (the
     first partial there was torn, so its next_seg is untrusted). Leave
     next_seg aliasing cur_seg and the writer would wrap onto the very
     segment it is filling, overwriting live blocks. Reserve afresh. *)
  if t.next_seg = t.cur_seg then t.next_seg <- pop_free t;
  Fileops.rebuild_free_inums t.files ~allocated:(Array.get t.imap_alloc);
  Stats.bump t.stats k_mounts;
  t
