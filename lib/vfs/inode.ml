
type t = {
  inum : int;
  mutable kind : Vfs.file_kind;
  mutable protected_ : bool;
  mutable size : int;
  mutable mtime : float;
  mutable version : int;
  mutable map : int array;
  mutable nmap : int;
  mutable ind_addrs : int array;
  mutable dbl_addr : int;
  mutable dirty : bool;
  dirty_ind : (int, unit) Hashtbl.t;
  mutable dbl_dirty : bool;
}

let ndirect = 12
let per_indirect ~block_size = block_size / 4
let magic = 0x494e (* "IN" *)

let create ~inum ~kind =
  {
    inum;
    kind;
    protected_ = false;
    size = 0;
    mtime = 0.0;
    version = 0;
    map = [||];
    nmap = 0;
    ind_addrs = [||];
    dbl_addr = 0;
    dirty = true;
    dirty_ind = Hashtbl.create 4;
    dbl_dirty = false;
  }

let nblocks t = t.nmap

let get_addr t lblock = if lblock < t.nmap then t.map.(lblock) else 0

let grow_array a n fill =
  if Array.length a >= n then a
  else begin
    let a' = Array.make (max n (2 * Array.length a)) fill in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  end

let indirect_count_for ~block_size nmap =
  if nmap <= ndirect then 0
  else
    let per = per_indirect ~block_size in
    (nmap - ndirect + per - 1) / per

let indirect_count t ~block_size = indirect_count_for ~block_size t.nmap

(* Which indirect block covers logical block [lblock] (if any). *)
let ind_index ~block_size lblock =
  if lblock < ndirect then None
  else Some ((lblock - ndirect) / per_indirect ~block_size)

let mark_meta_dirty t ~block_size lblock =
  t.dirty <- true;
  match ind_index ~block_size lblock with
  | None -> ()
  | Some idx ->
    Hashtbl.replace t.dirty_ind idx ();
    if idx > 0 then t.dbl_dirty <- true

let set_addr t ~block_size lblock addr =
  if lblock < 0 then invalid_arg "Inode.set_addr: negative block";
  if lblock >= Array.length t.map then t.map <- grow_array t.map (lblock + 1) 0;
  if lblock >= t.nmap then begin
    (* Newly covered range: any skipped entries are holes (already 0). *)
    t.nmap <- lblock + 1;
    let nind = indirect_count t ~block_size in
    if nind > Array.length t.ind_addrs then
      t.ind_addrs <- grow_array t.ind_addrs nind 0
  end;
  t.map.(lblock) <- addr;
  mark_meta_dirty t ~block_size lblock

let truncate_map t ~block_size n =
  if n < t.nmap then begin
    for i = n to t.nmap - 1 do
      if i < Array.length t.map then t.map.(i) <- 0
    done;
    t.nmap <- n;
    t.dirty <- true;
    (* Metadata past the cut no longer needs writing; re-mark the boundary
       indirect block dirty since its tail changed. *)
    let nind = indirect_count t ~block_size in
    let stale = Hashtbl.fold (fun idx () acc -> if idx >= nind then idx :: acc else acc) t.dirty_ind [] in
    List.iter (Hashtbl.remove t.dirty_ind) stale;
    if nind > 0 then Hashtbl.replace t.dirty_ind (nind - 1) ();
    t.dbl_dirty <- nind > 1
  end

let ind_addr t idx = if idx < Array.length t.ind_addrs then t.ind_addrs.(idx) else 0

let set_ind_addr t idx addr =
  if idx >= Array.length t.ind_addrs then begin
    let a = Array.make (idx + 1) 0 in
    Array.blit t.ind_addrs 0 a 0 (Array.length t.ind_addrs);
    t.ind_addrs <- a
  end;
  t.ind_addrs.(idx) <- addr

let write t b ~off =
  Bytes.fill b off 256 '\000';
  Enc.set_u16 b off magic;
  Enc.set_u8 b (off + 2) (match t.kind with Vfs.File -> 0 | Vfs.Dir -> 1);
  Enc.set_u8 b (off + 3) (if t.protected_ then 1 else 0);
  Enc.set_u8 b (off + 4) 1 (* allocated *);
  Enc.set_i64 b (off + 8) (Int64.of_int t.size);
  Enc.set_f64 b (off + 16) t.mtime;
  Enc.set_u32 b (off + 24) t.version;
  Enc.set_u32 b (off + 28) t.inum;
  Enc.set_u32 b (off + 32) (ind_addr t 0);
  Enc.set_u32 b (off + 36) t.dbl_addr;
  for i = 0 to ndirect - 1 do
    Enc.set_u32 b (off + 40 + (4 * i)) (if i < t.nmap then t.map.(i) else 0)
  done;
  Enc.set_u32 b (off + 88) t.nmap

let decode block off =
  if Enc.get_u16 block off <> magic || Enc.get_u8 block (off + 4) = 0 then None
  else
    let nmap = Enc.get_u32 block (off + 88) in
    let t =
      {
        inum = Enc.get_u32 block (off + 28);
        kind = (if Enc.get_u8 block (off + 2) = 1 then Vfs.Dir else Vfs.File);
        protected_ = Enc.get_u8 block (off + 3) = 1;
        size = Int64.to_int (Enc.get_i64 block (off + 8));
        mtime = Enc.get_f64 block (off + 16);
        version = Enc.get_u32 block (off + 24);
        map = Array.make (max nmap 1) 0;
        nmap;
        ind_addrs = [||];
        dbl_addr = Enc.get_u32 block (off + 36);
        dirty = false;
        dirty_ind = Hashtbl.create 4;
        dbl_dirty = false;
      }
    in
    for i = 0 to min (ndirect - 1) (nmap - 1) do
      t.map.(i) <- Enc.get_u32 block (off + 40 + (4 * i))
    done;
    let ind0 = Enc.get_u32 block (off + 32) in
    let nind = max (if ind0 <> 0 then 1 else 0) 0 in
    t.ind_addrs <- Array.make (max nind 1) 0;
    if ind0 <> 0 then t.ind_addrs.(0) <- ind0;
    Some t

let range_of_indirect ~block_size idx nmap =
  let per = per_indirect ~block_size in
  let lo = ndirect + (idx * per) in
  let hi = min nmap (lo + per) in
  (lo, hi)

let write_indirect t ~block_size idx b ~off =
  Bytes.fill b off block_size '\000';
  let lo, hi = range_of_indirect ~block_size idx t.nmap in
  for l = lo to hi - 1 do
    Enc.set_u32 b (off + (4 * (l - lo))) t.map.(l)
  done

let decode_indirect t ~block_size idx b =
  let lo, hi = range_of_indirect ~block_size idx t.nmap in
  if hi > Array.length t.map then t.map <- grow_array t.map hi 0;
  for l = lo to hi - 1 do
    t.map.(l) <- Enc.get_u32 b (4 * (l - lo))
  done

let write_double t ~block_size b ~off =
  Bytes.fill b off block_size '\000';
  let nind = indirect_count t ~block_size in
  for i = 1 to nind - 1 do
    Enc.set_u32 b (off + (4 * (i - 1))) t.ind_addrs.(i)
  done

let decode_double t ~block_size b =
  let nind = indirect_count t ~block_size in
  if nind > Array.length t.ind_addrs then
    t.ind_addrs <- grow_array t.ind_addrs nind 0;
  for i = 1 to nind - 1 do
    t.ind_addrs.(i) <- Enc.get_u32 b (4 * (i - 1))
  done

let load ~block_size ~read block off =
  match decode block off with
  | None -> None
  | Some t ->
    let nind = indirect_count t ~block_size in
    if nind > 1 && t.dbl_addr <> 0 then
      decode_double t ~block_size (read t.dbl_addr);
    for idx = 0 to nind - 1 do
      let a = if idx < Array.length t.ind_addrs then t.ind_addrs.(idx) else 0 in
      if a <> 0 then decode_indirect t ~block_size idx (read a)
    done;
    Some t

type block_kind = Data_block | Indirect_block | Double_block

let iter_block_addrs t ~block_size f =
  for lb = 0 to t.nmap - 1 do
    f Data_block lb t.map.(lb)
  done;
  let nind = indirect_count t ~block_size in
  for idx = 0 to min nind (Array.length t.ind_addrs) - 1 do
    f Indirect_block idx t.ind_addrs.(idx)
  done;
  if nind > 1 then f Double_block 0 t.dbl_addr

let contiguity t =
  let adjacent = ref 0 and pairs = ref 0 in
  for lb = 1 to t.nmap - 1 do
    let a = t.map.(lb - 1) and b = t.map.(lb) in
    if a <> 0 && b <> 0 then begin
      incr pairs;
      if b = a + 1 then incr adjacent
    end
  done;
  if !pairs = 0 then 1.0 else float_of_int !adjacent /. float_of_int !pairs
