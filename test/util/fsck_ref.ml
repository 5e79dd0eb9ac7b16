(* Reference for Ffs.fsck: the original check, which probes every inode
   number's slot in the inode table and loads each allocated inode with
   its indirect blocks. It reads the image through Disk.peek, so it
   charges no time, moves no head and changes nothing. The layout is
   FFS's: superblock, inode table (256-byte slots), block bitmap, data. *)

let max_inodes disk = Enc.get_u32 (Disk.peek disk 0) 8

(* First block and length of the bitmap, then the first data block. *)
let bitmap_extent disk =
  let bs = Disk.block_size disk in
  let start = 1 + (((max_inodes disk * 256) + bs - 1) / bs) in
  let len = (((Disk.nblocks disk + 7) / 8) + bs - 1) / bs in
  (start, len, start + len)

(* The bitmap blocks on the image. *)
let bitmap_blocks disk =
  let start, len, _ = bitmap_extent disk in
  List.init len (fun i -> Bytes.to_string (Disk.peek disk (start + i)))

(* The inode in [inum]'s table slot on the image, if the slot holds
   one, with its indirect blocks. *)
let slot disk inum =
  let bs = Disk.block_size disk in
  let per_block = bs / 256 in
  let b = Disk.peek disk (1 + (inum / per_block)) in
  Inode.load ~block_size:bs ~read:(Disk.peek disk) b (inum mod per_block * 256)

(* Every inode number whose table slot on the image holds a record, in
   increasing order. *)
let allocated disk =
  List.filter
    (fun inum -> Option.is_some (slot disk inum))
    (List.init (max_inodes disk - 1) succ)

(* The report fsck gives on the image, and the bitmap blocks it leaves. *)
let fsck disk =
  let bs = Disk.block_size disk and nblocks = Disk.nblocks disk in
  let _, _, data_start = bitmap_extent disk in
  let bitmap = Bytes.of_string (String.concat "" (bitmap_blocks disk)) in
  let bit i = Char.code (Bytes.get bitmap (i lsr 3)) land (1 lsl (i land 7)) <> 0 in
  let flip i =
    let c = Char.code (Bytes.get bitmap (i lsr 3)) in
    Bytes.set bitmap (i lsr 3) (Char.chr (c lxor (1 lsl (i land 7))))
  in
  let refs = Array.make nblocks 0 in
  let scanned = ref 0 in
  for inum = 1 to max_inodes disk - 1 do
    match slot disk inum with
    | None -> ()
    | Some ino ->
      incr scanned;
      Inode.iter_block_addrs ino ~block_size:bs (fun _ _ a ->
          if a >= data_start && a < nblocks then refs.(a) <- refs.(a) + 1)
  done;
  let leaked = ref 0 and cross = ref 0 and fixed = ref false in
  for blk = data_start to nblocks - 1 do
    if (refs.(blk) > 0) <> bit blk then begin
      if refs.(blk) = 0 then incr leaked;
      flip blk;
      fixed := true
    end;
    if refs.(blk) > 1 then incr cross
  done;
  ( {
      Ffs.scanned_inodes = !scanned;
      leaked_blocks = !leaked;
      cross_allocated = !cross;
      fixed = !fixed;
    },
    List.init (Bytes.length bitmap / bs) (fun i -> Bytes.sub_string bitmap (i * bs) bs) )
