exception Crashed = Vfs.Crashed

let magic = 0x4646_5342 (* "FFSB" *)
let max_inodes = 8192
let root_inum = Fileops.root_inum

(* Disk layout: block 0 superblock; then the inode table; then the block
   bitmap; then data blocks. The superblock holds the magic, the size,
   [max_inodes] and how many table blocks, from the first, are in use:
   mount reads only those. *)

type t = {
  disk : Disk.t;
  clock : Clock.t;
  stats : Stats.t;
  cfg : Config.t;
  bs : int;
  nblocks : int;
  itable_start : int;
  itable_blocks : int;
  mutable itable_used : int; (* table blocks the superblock on disk covers *)
  bitmap_start : int;
  bitmap_blocks : int;
  data_start : int;
  cache : Cache.t;
  files : Fileops.state;
  dirty_inodes : (int, unit) Hashtbl.t;
  bitmap : Bytes.t; (* one bit per block *)
  mutable bitmap_dirty : bool;
  mutable rotor : int; (* global next-fit pointer for allocation *)
  mutable last_syncer : float;
}

let inodes_per_block t = t.bs / 256

let check_alive t = Fileops.check_alive t.files

(* Bitmap *)

let bit_get b i = Char.code (Bytes.get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bit_set b i v =
  let mask = 1 lsl (i land 7) in
  let c = Char.code (Bytes.get b (i lsr 3)) in
  Bytes.set b (i lsr 3) (Char.chr (if v then c lor mask else c land lnot mask))

let free_blocks t =
  let n = ref 0 in
  for i = t.data_start to t.nblocks - 1 do
    if not (bit_get t.bitmap i) then incr n
  done;
  !n

let k_blocks_allocated = Stats.counter "ffs.blocks_allocated"
let k_inplace_writes = Stats.counter "ffs.inplace_writes"
let k_mounts = Stats.counter "ffs.mounts"
let k_syncer_runs = Stats.counter "ffs.syncer_runs"

let alloc_block t ~hint =
  let start =
    if hint >= t.data_start && hint < t.nblocks then hint else t.rotor
  in
  let found = ref (-1) in
  let probe i = if !found < 0 && not (bit_get t.bitmap i) then found := i in
  (* Next-fit from the hint, wrapping through the data region. *)
  let i = ref start in
  let steps = ref 0 in
  let span = t.nblocks - t.data_start in
  while !found < 0 && !steps < span do
    probe !i;
    incr i;
    if !i >= t.nblocks then i := t.data_start;
    incr steps
  done;
  match !found with
  | -1 -> Vfs.error No_space "FFS: disk full"
  | blk ->
    bit_set t.bitmap blk true;
    t.bitmap_dirty <- true;
    t.rotor <- (if blk + 1 >= t.nblocks then t.data_start else blk + 1);
    Stats.bump t.stats k_blocks_allocated;
    blk

let free_block t blk =
  if blk >= t.data_start then begin
    bit_set t.bitmap blk false;
    t.bitmap_dirty <- true
  end

(* Inode table *)

let itable_blkno t inum = t.itable_start + (inum / inodes_per_block t)
let itable_off t inum = inum mod inodes_per_block t * 256

let mark_inode_dirty t ino =
  ino.Inode.dirty <- true;
  Hashtbl.replace t.dirty_inodes ino.Inode.inum ()

let iget t inum =
  if inum <= 0 || inum >= max_inodes then Vfs.error Not_found "inode %d" inum;
  let load () =
    let b, off = Disk.read_run_view t.disk (itable_blkno t inum) 1 in
    Inode.load ~block_size:t.bs ~read:(Disk.read t.disk) b (off + itable_off t inum)
  in
  match Fileops.cached t.files inum load with
  | Some ino -> ino
  | None -> Vfs.error Not_found "inode %d" inum

(* Flushing --------------------------------------------------------------

   Delayed writes are issued elevator-sorted, which models the paper's
   "sorted in the disk queue with all the other I/O" behaviour: the write
   sweep pays short seeks instead of random ones, but each page is still a
   separate in-place I/O — LFS's batched segment write is what it is being
   compared against. *)

(* Give every changed indirect block of a dirty inode, and its
   double-indirect block, a disk address, then return their in-place
   writes, each encoded into a pool buffer. *)
let writes_for_inode t ino =
  let acc = ref [] in
  let add addr write =
    let b = Blockpool.take t.bs in
    write b ~off:0;
    acc := (addr, b) :: !acc
  in
  let nind = Inode.indirect_count ino ~block_size:t.bs in
  if Hashtbl.length ino.Inode.dirty_ind > 0 then begin
    Hashtbl.iter
      (fun idx () ->
        if idx < nind then begin
          if Inode.ind_addr ino idx = 0 then begin
            Inode.set_ind_addr ino idx (alloc_block t ~hint:t.rotor);
            if idx >= 1 then ino.Inode.dbl_dirty <- true
          end;
          add (Inode.ind_addr ino idx) (Inode.write_indirect ino ~block_size:t.bs idx)
        end)
      ino.Inode.dirty_ind;
    Hashtbl.reset ino.Inode.dirty_ind
  end;
  if ino.Inode.dbl_dirty && nind > 1 then begin
    if ino.Inode.dbl_addr = 0 then
      ino.Inode.dbl_addr <- alloc_block t ~hint:t.rotor;
    add ino.Inode.dbl_addr (Inode.write_double ino ~block_size:t.bs);
    ino.Inode.dbl_dirty <- false
  end;
  !acc

let inode_table_writes t inums =
  (* Group dirty inodes by table block; read-modify-write each block. *)
  let by_block = Hashtbl.create 8 in
  List.iter
    (fun inum ->
      let blk = itable_blkno t inum in
      let l = Option.value (Hashtbl.find_opt by_block blk) ~default:[] in
      Hashtbl.replace by_block blk (inum :: l))
    inums;
  Hashtbl.fold
    (fun blk inums acc ->
      let b = Blockpool.take t.bs in
      Disk.read_into t.disk blk b;
      List.iter
        (fun inum ->
          match Fileops.Itbl.find_opt t.files.inodes inum with
          | Some ino ->
            Inode.write ino b ~off:(itable_off t inum);
            ino.Inode.dirty <- false
          | None ->
            (* Freed inode: clear the slot. *)
            Bytes.fill b (itable_off t inum) 256 '\000')
        inums;
      (blk, b) :: acc)
    by_block []

let bitmap_writes t =
  if not t.bitmap_dirty then []
  else begin
    t.bitmap_dirty <- false;
    List.init t.bitmap_blocks (fun i ->
        let b = Blockpool.zeroed t.bs in
        let off = i * t.bs in
        let n = min t.bs (Bytes.length t.bitmap - off) in
        if n > 0 then Bytes.blit t.bitmap off b 0 n;
        (t.bitmap_start + i, b))
  end

(* Every write buffer is borrowed from the pool, and all of them go
   back once their writes have returned: [Disk.write_queued] keeps no
   reference. *)
let issue_sorted t writes =
  let ordered = Elevator.order ~head:(Disk.head t.disk) writes in
  List.iter
    (fun (blk, data) ->
      Disk.write_queued t.disk blk data;
      Stats.bump t.stats k_inplace_writes)
    ordered;
  List.iter (fun (_, b) -> Blockpool.give b) writes

(* Assign addresses to dirty frames (allocation on first flush keeps
   sequentially-written files contiguous) and build the write list. *)
let frame_writes t frames =
  List.map
    (fun f ->
      let ino = iget t f.Cache.file in
      let addr =
        match Inode.get_addr ino f.Cache.lblock with
        | 0 ->
          let hint =
            if f.Cache.lblock > 0 then
              match Inode.get_addr ino (f.Cache.lblock - 1) with
              | 0 -> t.rotor
              | prev -> prev + 1
            else t.rotor
          in
          let addr = alloc_block t ~hint in
          Inode.set_addr ino ~block_size:t.bs f.Cache.lblock addr;
          mark_inode_dirty t ino;
          addr
        | addr -> addr
      in
      let b = Blockpool.take t.bs in
      Bytes.blit f.Cache.data 0 b 0 t.bs;
      (addr, b))
    frames

let write_superblock t =
  let b = Bytes.make t.bs '\000' in
  Enc.set_u32 b 0 magic;
  Enc.set_u32 b 4 t.nblocks;
  Enc.set_u32 b 8 max_inodes;
  Enc.set_u32 b 12 t.itable_used;
  Disk.write t.disk 0 b

(* The table blocks that hold every inode number handed out so far. *)
let itable_needed t =
  (t.files.next_inum + inodes_per_block t - 1) / inodes_per_block t

(* Every caller holds a section, the buffer scope that keeps the frames
   across [frame_writes]' inode reads, each of which may park. *)
let flush_frames t frames =
  let data_writes = frame_writes t frames in
  (* Metadata for every file whose inode got dirty. *)
  let meta = ref [] in
  let dirty = Hashtbl.fold (fun inum () acc -> inum :: acc) t.dirty_inodes [] in
  List.iter
    (fun inum ->
      match Fileops.Itbl.find_opt t.files.inodes inum with
      | Some ino -> meta := writes_for_inode t ino @ !meta
      | None -> ())
    dirty;
  let itable = inode_table_writes t dirty in
  Hashtbl.reset t.dirty_inodes;
  (* The bound reaches the platter, synchronously, before any table
     block past it: it only grows, so a crash leaves it too high, never
     too low. *)
  if itable_needed t > t.itable_used then begin
    t.itable_used <- itable_needed t;
    write_superblock t
  end;
  issue_sorted t (data_writes @ !meta @ itable);
  List.iter (fun f -> Cache.mark_clean t.cache f) frames

let write_bitmap t = issue_sorted t (bitmap_writes t)

let sync_internal t =
  let frames = Cache.dirty_frames t.cache () in
  flush_frames t frames;
  write_bitmap t

let tick t =
  if
    Fileops.idle t.files
    && Clock.now t.clock -. t.last_syncer >= t.cfg.Config.fs.syncer_interval_s
  then
    Fileops.section t.files (fun () ->
        t.last_syncer <- Clock.now t.clock;
        sync_internal t;
        Stats.bump t.stats k_syncer_runs)

(* Page access ------------------------------------------------------------ *)

let get_page t ~inum ~lblock =
  match Cache.lookup t.cache ~file:inum ~lblock with
  | Some f -> f
  | None ->
    let addr = Inode.get_addr (iget t inum) lblock in
    let data =
      if addr = 0 then Blockpool.zeroed t.bs
      else begin
        let b = Blockpool.take t.bs in
        Disk.read_into t.disk addr b;
        b
      end
    in
    Cache.insert t.cache ~file:inum ~lblock data

let sync t =
  check_alive t;
  Fileops.section t.files (fun () -> sync_internal t)

let fsync_inum t inum =
  Fileops.section t.files (fun () ->
      flush_frames t (Cache.dirty_frames t.cache ~file:inum ()))

(* File layer ------------------------------------------------------------------

   Blocks get their permanent address at first flush ([frame_writes]), so
   a page write only marks the frame; the inode is marked once per write,
   after the page loop, and a freed block goes back to the bitmap. *)

module Files = Fileops.Make (struct
  type nonrec t = t

  let name = "ffs"
  let max_inodes = max_inodes
  let protection = false
  let state t = t.files
  let config t = t.cfg
  let clock t = t.clock
  let stats t = t.stats
  let cache t = t.cache
  let block_size t = t.bs
  let iget = iget
  let get_page = get_page
  let page_dirty t f = Cache.mark_dirty t.cache f
  let inode_dirty = mark_inode_dirty

  let wrote t ino =
    ino.Inode.mtime <- Clock.now t.clock;
    mark_inode_dirty t ino

  let free_block = free_block
  let slot_alloc = mark_inode_dirty

  (* A freed inode's slot is cleared at the next flush. *)
  let slot_free t inum = Hashtbl.replace t.dirty_inodes inum ()
  let tick = tick
  let fsync = fsync_inum
  let sync = sync
end)

let inum_of = Files.inum_of
let vfs = Files.vfs

(* Construction ------------------------------------------------------------ *)

let geometry (cfg : Config.t) nblocks =
  let bs = cfg.disk.block_size in
  let itable_blocks = (max_inodes * 256 + bs - 1) / bs in
  let bitmap_blocks = ((nblocks + 7) / 8 + bs - 1) / bs in
  let itable_start = 1 in
  let bitmap_start = itable_start + itable_blocks in
  let data_start = bitmap_start + bitmap_blocks in
  (bs, itable_blocks, itable_start, bitmap_start, bitmap_blocks, data_start)

let make disk clock stats (cfg : Config.t) =
  let nblocks = Disk.nblocks disk in
  let bs, itable_blocks, itable_start, bitmap_start, bitmap_blocks, data_start =
    geometry cfg nblocks
  in
  let t =
    {
      disk;
      clock;
      stats;
      cfg;
      bs;
      nblocks;
      itable_start;
      itable_blocks;
      itable_used = 1 (* the root's block *);
      bitmap_start;
      bitmap_blocks;
      data_start;
      cache = Cache.create clock stats cfg.cpu ~capacity:cfg.fs.cache_blocks;
      files = Fileops.state clock;
      dirty_inodes = Hashtbl.create 16;
      bitmap = Bytes.make ((nblocks + 7) / 8) '\000';
      bitmap_dirty = true;
      rotor = data_start;
      last_syncer = Clock.now clock;
    }
  in
  Cache.set_writeback t.cache (fun _victim ->
      (* Under cache pressure, write back all delayed writes in one
         elevator-sorted sweep, exactly as the syncer does — single
         random writes would misrepresent the sorted disk queue the
         paper's baseline relies on. *)
      Fileops.section t.files (fun () -> flush_frames t (Cache.dirty_frames t.cache ())));
  t

let format disk clock stats cfg =
  let t = make disk clock stats cfg in
  (* Reserve the metadata region in the bitmap. *)
  for i = 0 to t.data_start - 1 do
    bit_set t.bitmap i true
  done;
  write_superblock t;
  (* Zero the inode table. *)
  Disk.write_run t.disk t.itable_start
    (Bytes.make (t.itable_blocks * t.bs) '\000');
  let inum = Files.alloc_inode t ~kind:Vfs.Dir in
  assert (inum = root_inum);
  Fileops.section t.files (fun () -> sync_internal t);
  t

let mount disk clock stats cfg =
  let t = make disk clock stats cfg in
  let b = Disk.read disk 0 in
  if Enc.get_u32 b 0 <> magic then Vfs.error Invalid "FFS: bad superblock";
  if Enc.get_u32 b 4 <> t.nblocks then Vfs.error Invalid "FFS: size mismatch";
  t.itable_used <- Enc.get_u32 b 12;
  if t.itable_used < 1 || t.itable_used > t.itable_blocks then
    Vfs.error Invalid "FFS: %d inode-table blocks in use, of %d" t.itable_used
      t.itable_blocks;
  (* Load the bitmap. *)
  for i = 0 to t.bitmap_blocks - 1 do
    let blk = Disk.read disk (t.bitmap_start + i) in
    let off = i * t.bs in
    let n = min t.bs (Bytes.length t.bitmap - off) in
    if n > 0 then Bytes.blit blk 0 t.bitmap off n
  done;
  t.bitmap_dirty <- false;
  (* Each table block in use is read once; every allocated inode is
     cached with its indirect blocks (a read leaves the block's view as
     it is). *)
  t.files.next_inum <- root_inum + 1;
  for blk = 0 to t.itable_used - 1 do
    let b, off = Disk.read_run_view disk (t.itable_start + blk) 1 in
    for slot = 0 to inodes_per_block t - 1 do
      let inum = (blk * inodes_per_block t) + slot in
      if inum >= 1 && inum < max_inodes then
        Inode.load ~block_size:t.bs ~read:(Disk.read disk) b (off + (slot * 256))
        |> Option.iter (fun ino ->
               Fileops.Itbl.replace t.files.inodes inum ino;
               t.files.next_inum <- inum + 1)
    done
  done;
  Fileops.rebuild_free_inums t.files ~allocated:(Fileops.Itbl.mem t.files.inodes);
  Stats.bump t.stats k_mounts;
  t

let crash t = t.files.crashed <- true

(* fsck -------------------------------------------------------------------- *)

type fsck_report = {
  scanned_inodes : int;
  leaked_blocks : int;
  cross_allocated : int;
  fixed : bool;
}

let fsck t =
  check_alive t;
  let refcount = Bytes.make t.nblocks '\000' in
  let bump addr =
    if addr >= t.data_start && addr < t.nblocks then
      Bytes.set refcount addr
        (Char.chr (min 255 (Char.code (Bytes.get refcount addr) + 1)))
  in
  let scanned = ref 0 in
  Fileops.iter_allocated t.files (fun inum ->
      incr scanned;
      Inode.iter_block_addrs (iget t inum) ~block_size:t.bs (fun _ _ addr -> bump addr));
  let leaked = ref 0 and cross = ref 0 in
  for blk = t.data_start to t.nblocks - 1 do
    let refs = Char.code (Bytes.get refcount blk) in
    let marked = bit_get t.bitmap blk in
    if refs = 0 && marked then begin
      incr leaked;
      bit_set t.bitmap blk false;
      t.bitmap_dirty <- true
    end
    else if refs > 0 && not marked then begin
      bit_set t.bitmap blk true;
      t.bitmap_dirty <- true
    end;
    if refs > 1 then incr cross
  done;
  let fixed = t.bitmap_dirty in
  write_bitmap t;
  { scanned_inodes = !scanned; leaked_blocks = !leaked; cross_allocated = !cross; fixed }

let allocated_inodes t =
  let l = ref [] in
  Fileops.iter_allocated t.files (fun inum -> l := inum :: !l);
  List.rev !l

let contiguity t path = Inode.contiguity (iget t (inum_of t path))
