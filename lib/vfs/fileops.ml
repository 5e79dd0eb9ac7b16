let root_inum = 1

module Itbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash (inum : int) = inum
end)

type state = {
  inodes : Inode.t Itbl.t;
  mutable next_inum : int;
  mutable free_inums : int list;
  mutable crashed : bool;
  clock : Clock.t;
  mutable sections : int list;
}

let state clock =
  {
    inodes = Itbl.create 64;
    next_inum = root_inum;
    free_inums = [];
    crashed = false;
    clock;
    sections = [];
  }

let check_alive st = if st.crashed then raise Vfs.Crashed

(* A section's tag is the scheduler process that opened it, or 0 (every
   caller) outside any process. *)
let section st f =
  let tag = match Sched.current st.clock with Some s -> Sched.self s | None -> 0 in
  st.sections <- tag :: st.sections;
  let rec close = function
    | [] -> []
    | x :: tl -> if x = tag then tl else x :: close tl
  in
  Fun.protect ~finally:(fun () -> st.sections <- close st.sections) (fun () ->
      Blockpool.scope f)

let idle st = st.sections = []

let in_section st sched =
  let self = Sched.self sched in
  List.exists (fun o -> o = 0 || o = self) st.sections

let open_forever st = st.sections <- 0 :: st.sections

let cached st inum load =
  match Itbl.find_opt st.inodes inum with
  | Some ino -> Some ino
  | None ->
    let found = load () in
    Option.iter (Itbl.replace st.inodes inum) found;
    found

let rebuild_free_inums st ~allocated =
  let free = ref [] in
  for inum = st.next_inum - 1 downto 2 do
    if not (allocated inum) then free := inum :: !free
  done;
  st.free_inums <- !free

let iter_allocated st f =
  let free = Itbl.create 16 in
  List.iter (fun inum -> Itbl.replace free inum ()) st.free_inums;
  for inum = root_inum to st.next_inum - 1 do
    if not (Itbl.mem free inum) then f inum
  done

module type FS = sig
  type t

  val name : string
  val max_inodes : int
  val protection : bool
  val state : t -> state
  val config : t -> Config.t
  val clock : t -> Clock.t
  val stats : t -> Stats.t
  val cache : t -> Cache.t
  val block_size : t -> int
  val iget : t -> int -> Inode.t
  val get_page : t -> inum:int -> lblock:int -> Cache.frame
  val page_dirty : t -> Cache.frame -> unit
  val inode_dirty : t -> Inode.t -> unit
  val wrote : t -> Inode.t -> unit
  val free_block : t -> int -> unit
  val slot_alloc : t -> Inode.t -> unit
  val slot_free : t -> int -> unit
  val tick : t -> unit
  val fsync : t -> int -> unit
  val sync : t -> unit
end

module Make (F : FS) = struct
  let charge t kind = Cpu.charge (F.clock t) (F.stats t) (F.config t).Config.cpu kind

  let new_page t ~inum ~lblock =
    check_alive (F.state t);
    match Cache.lookup (F.cache t) ~file:inum ~lblock with
    | Some f -> f
    | None -> Cache.insert (F.cache t) ~file:inum ~lblock (Blockpool.zeroed (F.block_size t))

  let read t inum ~off ~len =
    let ino = F.iget t inum in
    let bs = F.block_size t in
    if off < 0 || len < 0 then Vfs.error Invalid "read: negative offset/length";
    let len = max 0 (min len (ino.Inode.size - off)) in
    let out = Bytes.create len in
    let copied = ref 0 in
    while !copied < len do
      let pos = off + !copied in
      let lb = pos / bs and boff = pos mod bs in
      let n = min (bs - boff) (len - !copied) in
      let f = F.get_page t ~inum ~lblock:lb in
      Bytes.blit f.Cache.data boff out !copied n;
      charge t Cpu.Copy_block;
      copied := !copied + n
    done;
    out

  (* [read t inum ~off:(lb * bs) ~len:bs] for a block wholly inside the
     file, with the same checks and charges, returning the frame itself. *)
  let read_block t inum lb =
    let ino = F.iget t inum in
    let bs = F.block_size t in
    if lb < 0 || (lb + 1) * bs > ino.Inode.size then
      Vfs.error Invalid "read_block: block %d is not wholly inside the file" lb;
    let f = F.get_page t ~inum ~lblock:lb in
    charge t Cpu.Copy_block;
    f.Cache.data

  (* The blocks worth fetching, as far as the cache has free frames,
     each read by a process of its own, started in disk-address order:
     every spindle's queue serves its share while the others work. *)
  let prefetch t blocks =
    let cache = F.cache t and bs = F.block_size t in
    let rec pick room acc = function
      | (inum, lblock) :: rest when room > 0 ->
        let ino = F.iget t inum in
        let addr = Inode.get_addr ino lblock in
        if lblock < 0 || lblock * bs >= ino.Inode.size || addr = 0
           || Cache.mem cache ~file:inum ~lblock
        then pick room acc rest
        else pick (room - 1) ((addr, inum, lblock) :: acc) rest
      | _ -> acc
    in
    List.sort_uniq compare (pick (Cache.room cache) [] blocks)
    |> List.map (fun (_, inum, lblock) () -> ignore (F.get_page t ~inum ~lblock))
    |> Sched.fork_join (F.clock t)

  let write t inum ~off data =
    let ino = F.iget t inum in
    let bs = F.block_size t in
    let len = Bytes.length data in
    if off < 0 then Vfs.error Invalid "write: negative offset";
    let written = ref 0 in
    while !written < len do
      let pos = off + !written in
      let lb = pos / bs and boff = pos mod bs in
      let n = min (bs - boff) (len - !written) in
      let f =
        (* A read-modify-write is needed unless the write covers the whole
           block or the block lies entirely at or past end of file. *)
        if n = bs || lb * bs >= ino.Inode.size then new_page t ~inum ~lblock:lb
        else F.get_page t ~inum ~lblock:lb
      in
      Bytes.blit data !written f.Cache.data boff n;
      F.page_dirty t f;
      charge t Cpu.Copy_block;
      written := !written + n
    done;
    if off + len > ino.Inode.size then begin
      ino.Inode.size <- off + len;
      F.inode_dirty t ino
    end;
    F.wrote t ino

  let truncate t inum len =
    let ino = F.iget t inum in
    let bs = F.block_size t in
    if len < 0 then Vfs.error Invalid "truncate: negative length";
    if len < ino.Inode.size then begin
      let keep = (len + bs - 1) / bs in
      (* Release on-disk blocks past the cut. *)
      for lb = keep to Inode.nblocks ino - 1 do
        F.free_block t (Inode.get_addr ino lb)
      done;
      (* Drop cached frames past the cut — they may exist even for blocks
         that never reached disk. *)
      List.iter
        (fun f -> if f.Cache.lblock >= keep then Cache.invalidate (F.cache t) f)
        (Cache.file_frames (F.cache t) inum);
      (* Zero the tail of the boundary block so a later regrow reads
         zeros, as POSIX requires. *)
      (if len mod bs <> 0 then begin
         let f = F.get_page t ~inum ~lblock:(len / bs) in
         Bytes.fill f.Cache.data (len mod bs) (bs - (len mod bs)) '\000';
         F.page_dirty t f
       end);
      let old_nind = Inode.indirect_count ino ~block_size:bs in
      Inode.truncate_map ino ~block_size:bs keep;
      let new_nind = Inode.indirect_count ino ~block_size:bs in
      for idx = new_nind to old_nind - 1 do
        if idx < Array.length ino.Inode.ind_addrs then begin
          F.free_block t ino.Inode.ind_addrs.(idx);
          ino.Inode.ind_addrs.(idx) <- 0
        end
      done;
      if new_nind <= 1 && ino.Inode.dbl_addr <> 0 then begin
        F.free_block t ino.Inode.dbl_addr;
        ino.Inode.dbl_addr <- 0;
        ino.Inode.dbl_dirty <- false
      end
    end;
    ino.Inode.size <- len;
    F.inode_dirty t ino

  let alloc_inode t ~kind =
    let st = F.state t in
    let inum =
      match st.free_inums with
      | i :: rest ->
        st.free_inums <- rest;
        i
      | [] ->
        if st.next_inum >= F.max_inodes then
          Vfs.error No_space "%s: out of inodes" (String.uppercase_ascii F.name);
        let i = st.next_inum in
        st.next_inum <- i + 1;
        i
    in
    let ino = Inode.create ~inum ~kind in
    ino.Inode.mtime <- Clock.now (F.clock t);
    Itbl.replace st.inodes inum ino;
    F.slot_alloc t ino;
    inum

  let free_inode t inum =
    let st = F.state t in
    truncate t inum 0;
    List.iter (Cache.invalidate (F.cache t)) (Cache.file_frames (F.cache t) inum);
    F.slot_free t inum;
    Itbl.remove st.inodes inum;
    st.free_inums <- inum :: st.free_inums

  let size t inum = (F.iget t inum).Inode.size

  module Ns = Namespace.Make (struct
    type t = F.t

    let root _ = root_inum
    let read = read
    let write = write
    let truncate t inum ~len = truncate t inum len
    let size = size
    let alloc_inode = alloc_inode
    let free_inode = free_inode
  end)

  let inum_of t path =
    match Ns.lookup t path with
    | Some (inum, _) -> inum
    | None -> Vfs.error Not_found "%s" path

  let resolve_file t path =
    match Ns.lookup t path with
    | Some (inum, Vfs.File) -> inum
    | Some (_, Vfs.Dir) -> Vfs.error Is_dir "%s" path
    | None -> Vfs.error Not_found "%s" path

  let stat t path =
    match Ns.lookup t path with
    | None -> Vfs.error Not_found "%s" path
    | Some (inum, kind) ->
      let ino = F.iget t inum in
      { Vfs.inum; size = ino.Inode.size; kind; protected_ = ino.Inode.protected_ }

  let exists t path = Option.is_some (Ns.lookup t path)

  let vfs t =
    let alive () = check_alive (F.state t) in
    let op () = alive (); F.tick t; charge t Cpu.Syscall in
    let file_op () = op (); charge t Cpu.File_op in
    {
      Vfs.name = F.name;
      block_size = F.block_size t;
      create = (fun path -> file_op (); Ns.create t path ~kind:Vfs.File);
      open_file = (fun path -> file_op (); resolve_file t path);
      read = (fun fd ~off ~len -> op (); read t fd ~off ~len);
      read_block = (fun fd lb -> op (); read_block t fd lb);
      prefetch = (fun blocks -> op (); prefetch t blocks);
      write = (fun fd ~off data -> op (); write t fd ~off data);
      truncate = (fun fd len -> op (); truncate t fd len);
      size = (fun fd -> alive (); size t fd);
      fsync = (fun fd -> op (); F.fsync t fd);
      sync = (fun () -> op (); F.sync t);
      remove = (fun path -> file_op (); Ns.remove t path);
      mkdir = (fun path -> file_op (); ignore (Ns.create t path ~kind:Vfs.Dir));
      readdir = (fun path -> op (); Ns.readdir t path);
      exists = (fun path -> alive (); exists t path);
      stat = (fun path -> op (); stat t path);
      set_protected =
        (fun path value ->
          if not F.protection then begin
            alive ();
            Vfs.error Not_supported
              "%s: transaction protection requires the embedded (LFS) manager" path
          end;
          op ();
          let ino = F.iget t (inum_of t path) in
          ino.Inode.protected_ <- value;
          F.inode_dirty t ino);
    }

  let crash t =
    (F.state t).crashed <- true;
    Cache.clear (F.cache t)

  let read_only t ~name ~guard =
    let deny _ = guard (); Vfs.error Not_supported "%s is read-only" name in
    {
      Vfs.name;
      block_size = F.block_size t;
      create = deny;
      open_file = (fun path -> guard (); resolve_file t path);
      read = (fun fd ~off ~len -> guard (); read t fd ~off ~len);
      read_block = (fun fd lb -> guard (); read_block t fd lb);
      prefetch = (fun blocks -> guard (); prefetch t blocks);
      write = (fun _ ~off:_ _ -> deny ());
      truncate = (fun _ _ -> deny ());
      size = (fun fd -> guard (); size t fd);
      fsync = deny;
      sync = deny;
      remove = deny;
      mkdir = deny;
      readdir = (fun path -> guard (); Ns.readdir t path);
      exists = (fun path -> guard (); exists t path);
      stat = (fun path -> guard (); stat t path);
      set_protected = (fun _ _ -> deny ());
    }
end
