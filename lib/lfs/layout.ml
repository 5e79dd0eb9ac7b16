
let superblock_blkno = 0
let checkpoint_blknos = (1, 2)
let data_start = 3
let inode_size = 256

let sb_magic = 0x4c46_5353 (* "LFSS" *)
let sum_magic = 0x4c46_5355 (* "LFSU" *)
let cp_magic = 0x4c46_5343 (* "LFSC" *)

external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
external swap64 : int64 -> int64 = "%bswap_int64"

(* The checksum is taken eight bytes per step. The weight
   [1 + (i land 0xff)] repeats every 256 bytes, so word [k] of every
   256-byte period carries the same eight weights: [column] sums that
   word over a run of periods with its even and its odd bytes each in
   16-bit lanes, and multiplies by the weights once at the end. The top
   lane of a 63-bit int holds 15 bits, so a column covers at most 128
   periods (128 * 255 = 32 640 < 2^15). The total is masked once at the
   end: native ints wrap modulo 2^63, a multiple of 2^30, so the result
   equals masking after every byte. *)
let lanes = 0x00ff_00ff_00ff_00ffL
let max_periods = 128

(* Even lane [j] of word [k] holds bytes of weight [1 + 8k + 2j], odd
   lane [j] those of weight [2 + 8k + 2j]. *)
let weigh k e o =
  let w = 1 + (8 * k) in
  ((e land 0xffff) * w)
  + (((e lsr 16) land 0xffff) * (w + 2))
  + (((e lsr 32) land 0xffff) * (w + 4))
  + ((e lsr 48) * (w + 6))
  + ((o land 0xffff) * (w + 1))
  + (((o lsr 16) land 0xffff) * (w + 3))
  + (((o lsr 32) land 0xffff) * (w + 5))
  + ((o lsr 48) * (w + 7))

let checksum_sub b off len =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Layout.checksum_sub";
  (* Word [k] of [periods] consecutive periods from [base], weighed. *)
  let column base periods k =
    let e = ref 0 and o = ref 0 in
    for p = 0 to periods - 1 do
      let w = get64u b (base + (8 * k) + (256 * p)) in
      let w = if Sys.big_endian then swap64 w else w in
      e := !e + Int64.to_int (Int64.logand w lanes);
      o := !o + Int64.to_int (Int64.logand (Int64.shift_right_logical w 8) lanes)
    done;
    weigh k !e !o
  in
  let total = ref 0 in
  let periods = len / 256 in
  let p = ref 0 in
  while !p < periods do
    let n = min max_periods (periods - !p) in
    for k = 0 to 31 do
      total := !total + column (off + (256 * !p)) n k
    done;
    p := !p + n
  done;
  let tail = len - (256 * periods) in
  for k = 0 to (tail / 8) - 1 do
    total := !total + column (off + (256 * periods)) 1 k
  done;
  for i = len - (tail land 7) to len - 1 do
    total := !total + (Char.code (Bytes.unsafe_get b (off + i)) * (1 + (i land 0xff)))
  done;
  !total land 0x3fffffff

let checksum b = checksum_sub b 0 (Bytes.length b)

(* Checksums live in bytes [4..8) of each structure, just after the magic.
   They are computed with that field zeroed. *)
let seal_at b off len =
  Enc.set_u32 b (off + 4) 0;
  Enc.set_u32 b (off + 4) (checksum_sub b off len)

let seal b = seal_at b 0 (Bytes.length b)

(* A seal is checked in place, without zeroing the field: its four bytes
   (weights 5..8) are taken back out of the sum instead. *)
let check_seal_at b off len =
  let stored = Enc.get_u32 b (off + 4) in
  let field = ref 0 in
  for i = 4 to 7 do
    field := !field + (Char.code (Bytes.get b (off + i)) * (1 + i))
  done;
  (checksum_sub b off len - !field) land 0x3fffffff = stored

let check_seal b = check_seal_at b 0 (Bytes.length b)

(* Superblock *)

type superblock = {
  block_size : int;
  nblocks : int;
  segment_blocks : int;
  nsegments : int;
  max_inodes : int;
}

let nsegments_of ~block_size:_ ~nblocks ~segment_blocks =
  (nblocks - data_start) / segment_blocks

let segment_base sb i = data_start + (i * sb.segment_blocks)

let write_superblock b sb =
  Bytes.fill b 0 (Bytes.length b) '\000';
  Enc.set_u32 b 0 sb_magic;
  Enc.set_u32 b 8 sb.block_size;
  Enc.set_u32 b 12 sb.nblocks;
  Enc.set_u32 b 16 sb.segment_blocks;
  Enc.set_u32 b 20 sb.nsegments;
  Enc.set_u32 b 24 sb.max_inodes;
  seal b

let read_superblock b =
  if Enc.get_u32 b 0 <> sb_magic || not (check_seal b) then
    Vfs.error Invalid "LFS superblock: bad magic or checksum";
  {
    block_size = Enc.get_u32 b 8;
    nblocks = Enc.get_u32 b 12;
    segment_blocks = Enc.get_u32 b 16;
    nsegments = Enc.get_u32 b 20;
    max_inodes = Enc.get_u32 b 24;
  }

(* Segment summary *)

type summary_entry =
  | Data of { inum : int; lblock : int }
  | Inode_block of { inums : int list }
  | Indirect of { inum : int; index : int }
  | Double_indirect of { inum : int }
  | Imap_block of { index : int }
  | Usage_block of { index : int }

type summary = {
  seq : int64;
  timestamp : float;
  next_seg : int;
  more : bool;
  cold : bool;
      (* written by the cleaner's relocation (cold) log head; never part
         of the roll-forward chain, so carries no meaningful seq *)
  payload_ck : int;
  entries : summary_entry list;
}

let sum_header = 40

(* Fixed 9-byte entries; Inode_block stores its inums in a side table after
   the entries, referenced by (offset, count). *)
let entry_bytes = 9

let max_summary_entries ~block_size =
  (* Reserve a quarter of the block for inode-number side tables. *)
  (block_size - sum_header) * 3 / 4 / entry_bytes

let summary_fits ~block_size ~entries ~inums =
  sum_header + (entries * entry_bytes) + (4 * inums) <= block_size

let entry_block ~pos i = pos + 1 + i
let next_partial ~pos s = entry_block ~pos (List.length s.entries)
let ends_in_segment ~segment_blocks ~pos n = entry_block ~pos n <= segment_blocks

let write_summary_at b ~off ~block_size s =
  let n = List.length s.entries in
  let too_big () = invalid_arg "Layout.write_summary_at: summary larger than its block" in
  if not (summary_fits ~block_size ~entries:n ~inums:0) then too_big ();
  Bytes.fill b off block_size '\000';
  Enc.set_u32 b off sum_magic;
  Enc.set_i64 b (off + 8) s.seq;
  Enc.set_f64 b (off + 16) s.timestamp;
  Enc.set_u32 b (off + 24) s.next_seg;
  Enc.set_u16 b (off + 28) n;
  Enc.set_u8 b (off + 30) (if s.more then 1 else 0);
  Enc.set_u8 b (off + 31) (if s.cold then 1 else 0);
  Enc.set_u32 b (off + 32) s.payload_ck;
  (* [side] is where the inode-number tables go on, the byte count
     [summary_fits] takes so far. *)
  let side = ref (sum_header + (n * entry_bytes)) in
  List.iteri
    (fun i entry ->
      let e = off + sum_header + (i * entry_bytes) in
      match entry with
      | Data { inum; lblock } ->
        Enc.set_u8 b e 0;
        Enc.set_u32 b (e + 1) inum;
        Enc.set_u32 b (e + 5) lblock
      | Inode_block { inums } ->
        let k = List.length inums in
        if !side + (4 * k) > block_size then too_big ();
        Enc.set_u8 b e 1;
        Enc.set_u32 b (e + 1) !side;
        Enc.set_u32 b (e + 5) k;
        List.iter
          (fun inum ->
            Enc.set_u32 b (off + !side) inum;
            side := !side + 4)
          inums
      | Indirect { inum; index } ->
        Enc.set_u8 b e 2;
        Enc.set_u32 b (e + 1) inum;
        Enc.set_u32 b (e + 5) index
      | Double_indirect { inum } ->
        Enc.set_u8 b e 3;
        Enc.set_u32 b (e + 1) inum;
        Enc.set_u32 b (e + 5) 0
      | Imap_block { index } ->
        Enc.set_u8 b e 4;
        Enc.set_u32 b (e + 1) index;
        Enc.set_u32 b (e + 5) 0
      | Usage_block { index } ->
        Enc.set_u8 b e 5;
        Enc.set_u32 b (e + 1) index;
        Enc.set_u32 b (e + 5) 0)
    s.entries;
  seal_at b off block_size

let write_summary b s =
  write_summary_at b ~off:0 ~block_size:(Bytes.length b) s

let read_summary_at b ~off ~block_size =
  if
    Enc.get_u32 b off <> sum_magic
    || not (check_seal_at b off block_size)
  then None
  else
    let n = Enc.get_u16 b (off + 28) in
    let entry i =
      let e = off + sum_header + (i * entry_bytes) in
      let a = Enc.get_u32 b (e + 1) and c = Enc.get_u32 b (e + 5) in
      match Enc.get_u8 b e with
      | 0 -> Data { inum = a; lblock = c }
      | 1 ->
        if a + (4 * c) > block_size then
          Vfs.error Invalid "LFS summary: inode table past the block";
        let inums = List.init c (fun j -> Enc.get_u32 b (off + a + (4 * j))) in
        Inode_block { inums }
      | 2 -> Indirect { inum = a; index = c }
      | 3 -> Double_indirect { inum = a }
      | 4 -> Imap_block { index = a }
      | 5 -> Usage_block { index = a }
      | k -> Vfs.error Invalid "LFS summary: bad entry kind %d" k
    in
    Some
      {
        seq = Enc.get_i64 b (off + 8);
        timestamp = Enc.get_f64 b (off + 16);
        next_seg = Enc.get_u32 b (off + 24);
        more = Enc.get_u8 b (off + 30) = 1;
        cold = Enc.get_u8 b (off + 31) = 1;
        payload_ck = Enc.get_u32 b (off + 32);
        entries = List.init n entry;
      }

let read_summary b = read_summary_at b ~off:0 ~block_size:(Bytes.length b)

(* Checkpoint *)

type checkpoint = {
  cp_seq : int64;
  cp_timestamp : float;
  cur_seg : int;
  cur_off : int;
  cp_next_seg : int;
  next_inum : int;
  write_seq : int64;
  imap_addrs : int array;
  usage_addrs : int array;
}

let write_checkpoint b cp =
  Bytes.fill b 0 (Bytes.length b) '\000';
  Enc.set_u32 b 0 cp_magic;
  Enc.set_i64 b 8 cp.cp_seq;
  Enc.set_f64 b 16 cp.cp_timestamp;
  Enc.set_u32 b 24 cp.cur_seg;
  Enc.set_u32 b 28 cp.cur_off;
  Enc.set_u32 b 32 cp.cp_next_seg;
  Enc.set_u32 b 36 cp.next_inum;
  Enc.set_i64 b 40 cp.write_seq;
  Enc.set_u16 b 48 (Array.length cp.imap_addrs);
  Enc.set_u16 b 50 (Array.length cp.usage_addrs);
  let off = ref 52 in
  Array.iter
    (fun a ->
      Enc.set_u32 b !off a;
      off := !off + 4)
    cp.imap_addrs;
  Array.iter
    (fun a ->
      Enc.set_u32 b !off a;
      off := !off + 4)
    cp.usage_addrs;
  seal b

let read_checkpoint b =
  if Enc.get_u32 b 0 <> cp_magic || not (check_seal b) then None
  else
    let n_imap = Enc.get_u16 b 48 and n_usage = Enc.get_u16 b 50 in
    let imap_addrs = Array.init n_imap (fun i -> Enc.get_u32 b (52 + (4 * i))) in
    let base = 52 + (4 * n_imap) in
    let usage_addrs =
      Array.init n_usage (fun i -> Enc.get_u32 b (base + (4 * i)))
    in
    Some
      {
        cp_seq = Enc.get_i64 b 8;
        cp_timestamp = Enc.get_f64 b 16;
        cur_seg = Enc.get_u32 b 24;
        cur_off = Enc.get_u32 b 28;
        cp_next_seg = Enc.get_u32 b 32;
        next_inum = Enc.get_u32 b 36;
        write_seq = Enc.get_i64 b 40;
        imap_addrs;
        usage_addrs;
      }

(* Inode map and segment usage table *)

type imap_entry = { addr : int; slot : int; alloc : bool }
type usage_entry = { live : int; mtime : float; last_write : float; cold : bool }

let imap_entry_bytes = 8
let usage_entry_bytes = 21
let imap_per_chunk ~block_size = block_size / imap_entry_bytes
let usage_per_chunk ~block_size = block_size / usage_entry_bytes
let chunks n per = (n + per - 1) / per
let n_imap_chunks ~block_size ~max_inodes = chunks max_inodes (imap_per_chunk ~block_size)

let n_usage_chunks ~block_size ~nsegments =
  chunks nsegments (usage_per_chunk ~block_size)

(* [f off index] for each entry of an [n]-entry table that chunk [chunk]
   holds: its byte offset in the chunk and its index in the table. *)
let iter_chunk ~block_size ~bytes ~chunk ~n f =
  let per = block_size / bytes in
  let lo = chunk * per in
  for i = 0 to min per (n - lo) - 1 do
    f (i * bytes) (lo + i)
  done

let write_imap_chunk b ~off:base ~block_size ~chunk ~n entry =
  Bytes.fill b base block_size '\000';
  iter_chunk ~block_size ~bytes:imap_entry_bytes ~chunk ~n (fun off inum ->
      let off = base + off and e = entry inum in
      Enc.set_u32 b off e.addr;
      Enc.set_u8 b (off + 4) e.slot;
      Enc.set_u8 b (off + 5) (Bool.to_int e.alloc))

let read_imap_chunk b ~chunk ~n set =
  iter_chunk ~block_size:(Bytes.length b) ~bytes:imap_entry_bytes ~chunk ~n
    (fun off inum ->
      set inum
        {
          addr = Enc.get_u32 b off;
          slot = Enc.get_u8 b (off + 4);
          alloc = Enc.get_u8 b (off + 5) = 1;
        })

let write_usage_chunk b ~off:base ~block_size ~chunk ~n entry =
  Bytes.fill b base block_size '\000';
  iter_chunk ~block_size ~bytes:usage_entry_bytes ~chunk ~n (fun off seg ->
      let off = base + off and e = entry seg in
      Enc.set_u32 b off e.live;
      Enc.set_f64 b (off + 4) e.mtime;
      Enc.set_f64 b (off + 12) e.last_write;
      Enc.set_u8 b (off + 20) (Bool.to_int e.cold))

let read_usage_chunk b ~chunk ~n set =
  iter_chunk ~block_size:(Bytes.length b) ~bytes:usage_entry_bytes ~chunk ~n
    (fun off seg ->
      set seg
        {
          live = Enc.get_u32 b off;
          mtime = Enc.get_f64 b (off + 4);
          last_write = Enc.get_f64 b (off + 12);
          cold = Enc.get_u8 b (off + 20) land 1 = 1;
        })
