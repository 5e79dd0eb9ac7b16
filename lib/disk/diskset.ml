(* Multiple spindles behind the Disk API. Logical block numbers are
   remapped per request: the 3-block LFS boot region stays on data disk 0
   (checkpoint blocks optionally on the log spindle), and above it whole
   segments go round-robin across the data disks. With stripe unit =
   segment size, an LFS segment write or cleaner read is always one
   contiguous extent on one spindle; the generic extent splitter below
   still handles arbitrary runs for safety. *)

(* Blocks 0..2: superblock + two checkpoint slots (Tx_lfs.Layout uses the
   same constant as its data_start). *)
let reserved = 3

type t = {
  data : Disk.t array;
  log : Disk.t array; (* 0 = no log spindle; >1 = one per WAL stream *)
  chunk : int; (* stripe unit in blocks = segment size *)
  logical_nblocks : int;
  route_cp : bool; (* checkpoint blocks 1,2 live on the log spindle *)
}

let create ?(route_checkpoints = false) clock stats (cfg : Config.t) =
  let n = cfg.Config.fs.Config.ndisks in
  if n < 1 then invalid_arg "Diskset.create: ndisks must be >= 1";
  let chunk = cfg.Config.fs.Config.segment_blocks in
  (* Each member's extents are its boot region and its stripe units. *)
  let disk ?prefix () =
    Disk.create ?prefix ~boot_blocks:reserved ~extent_blocks:chunk clock stats
      cfg.Config.disk
  in
  let data =
    if n = 1 then [| disk () |]
    else Array.init n (fun i -> disk ~prefix:(Printf.sprintf "disk%d" i) ())
  in
  let log =
    if cfg.Config.fs.Config.log_disk then
      (* One spindle per WAL stream: stream i's forces run on their own
         head. The first keeps the historical "disklog" prefix so
         single-stream artifacts are unchanged. *)
      Array.init
        (max 1 cfg.Config.fs.Config.log_streams)
        (fun i ->
          disk
            ~prefix:(if i = 0 then "disklog" else Printf.sprintf "disklog%d" i)
            ())
    else [||]
  in
  let logical_nblocks =
    if n = 1 then cfg.Config.disk.Config.nblocks
    else begin
      let psegs = (cfg.Config.disk.Config.nblocks - reserved) / chunk in
      if psegs < 1 then
        invalid_arg "Diskset.create: spindle too small for one segment";
      reserved + (n * psegs * chunk)
    end
  in
  {
    data;
    log;
    chunk;
    logical_nblocks;
    route_cp = route_checkpoints && Array.length log > 0;
  }

let queue_depth t =
  let sum = Array.fold_left (fun n d -> n + Disk.queue_depth d) 0 in
  sum t.data + sum t.log
let primary t = t.data.(0)
let log_disks t = t.log
let nblocks t = t.logical_nblocks
let block_size t = Disk.block_size t.data.(0)

let members t =
  let data =
    if Array.length t.data = 1 then [ ("disk", t.data.(0)) ]
    else
      Array.to_list
        (Array.mapi (fun i d -> (Printf.sprintf "disk%d" i, d)) t.data)
  in
  let logs =
    Array.to_list
      (Array.mapi
         (fun i d ->
           ((if i = 0 then "disklog" else Printf.sprintf "disklog%d" i), d))
         t.log)
  in
  data @ logs

let check_range t blkno n =
  if blkno < 0 || n < 0 || blkno + n > t.logical_nblocks then
    invalid_arg
      (Printf.sprintf "Diskset: blocks [%d..%d) out of range [0..%d)" blkno
         (blkno + n) t.logical_nblocks)

(* Logical block -> (spindle, physical block). *)
let locate t blkno =
  check_range t blkno 1;
  if t.route_cp && (blkno = 1 || blkno = 2) then (t.log.(0), blkno)
  else
    let n = Array.length t.data in
    if n = 1 || blkno < reserved then (t.data.(0), blkno)
    else
      let seg = (blkno - reserved) / t.chunk in
      let off = (blkno - reserved) mod t.chunk in
      (t.data.(seg mod n), reserved + (seg / n * t.chunk) + off)

(* How many blocks from [blkno] on lie contiguously on its spindle, by
   the mapping [locate] implements: the routed checkpoint pair is one
   extent on the log spindle; a single data spindle is the identity
   above it; a striped set keeps each segment whole on one spindle, and
   the boot region runs straight into segment 0's slot on disk 0. *)
let contiguous t blkno =
  if t.route_cp && blkno < reserved then if blkno = 0 then 1 else reserved - blkno
  else if Array.length t.data = 1 then t.logical_nblocks - blkno
  else if blkno < reserved then reserved + t.chunk - blkno
  else t.chunk - ((blkno - reserved) mod t.chunk)

(* Cut [blkno, blkno+n) into maximal extents that are contiguous on one
   spindle and feed them to [k] in logical order. *)
let split t blkno n k =
  check_range t blkno n;
  let rec go blkno n =
    if n > 0 then begin
      let d, phys = locate t blkno in
      let len = min n (contiguous t blkno) in
      k d phys len;
      go (blkno + len) (n - len)
    end
  in
  go blkno n

let read t blkno =
  let d, phys = locate t blkno in
  Disk.read d phys

let read_into t blkno buf =
  let d, phys = locate t blkno in
  Disk.read_into d phys buf

(* A run on one extent (every LFS segment, under segment-granular
   striping) is the member's view. A run cut at a stripe boundary is
   assembled, each extent copied as soon as it is read, as a sequence
   of [Disk.read_run]s would. *)
let read_run_view t blkno n =
  check_range t blkno n;
  if n > 0 && n <= contiguous t blkno then
    let d, phys = locate t blkno in
    Disk.read_run_view d phys n
  else begin
    let bs = block_size t in
    let buf = Bytes.create (n * bs) in
    let cursor = ref 0 in
    split t blkno n (fun d phys len ->
        let b, off = Disk.read_run_view d phys len in
        Bytes.blit b off buf (!cursor * bs) (len * bs);
        cursor := !cursor + len);
    (buf, 0)
  end

let read_async t blkno buf =
  let d, phys = locate t blkno in
  Disk.read_async d phys buf

let write t blkno data =
  let d, phys = locate t blkno in
  Disk.write d phys data

let write_run_sub t blkno data ~off ~len =
  let bs = block_size t in
  if len <= 0 || len mod bs <> 0 then
    invalid_arg "Diskset.write_run_sub: data must be a positive whole number of blocks";
  if off < 0 || off > Bytes.length data - len then
    invalid_arg "Diskset.write_run_sub: range outside the buffer";
  let cursor = ref off in
  split t blkno (len / bs) (fun d phys n ->
      Disk.write_run_sub d phys data ~off:!cursor ~len:(n * bs);
      cursor := !cursor + (n * bs))

let peek t blkno =
  let d, phys = locate t blkno in
  Disk.peek d phys

let poke t blkno data =
  let d, phys = locate t blkno in
  Disk.poke d phys data

let set_injector t inj =
  Array.iter (fun d -> Disk.set_injector d inj) t.data;
  Array.iter (fun d -> Disk.set_injector d inj) t.log
