exception Op_restart

type t = {
  page_size : int;
  get : int -> bytes;
  put : int -> bytes -> unit;
  record_grain : bool;
  put_sys : int -> bytes -> unit;
  lock_rec : page:int -> recno:int -> write:bool -> unit;
  lock_meta : write:bool -> unit;
  lock_page : int -> unit;
  lock_file : write:bool -> unit;
  latch_file : write:bool -> unit;
  latch_page : page:int -> write:bool -> unit;
  end_op : unit -> unit;
}

(* Fill the record-grain hooks with no-ops: plain paging and page-grain
   WAL paging need none of them. *)
let nohooks ~page_size get put =
  {
    page_size;
    get;
    put;
    record_grain = false;
    put_sys = put;
    lock_rec = (fun ~page:_ ~recno:_ ~write:_ -> ());
    lock_meta = (fun ~write:_ -> ());
    lock_page = ignore;
    lock_file = (fun ~write:_ -> ());
    latch_file = (fun ~write:_ -> ());
    latch_page = (fun ~page:_ ~write:_ -> ());
    end_op = (fun () -> ());
  }

(* Page buffers lent to builds come from the block pool's lent list,
   one per page size, shared by every pager of the process. *)
let lend t f = Blockpool.lend t.page_size f

let write t page build = lend t (fun b -> build b; t.put page b)

let pooled ~page_size = Blockpool.lent page_size

(* Every operation is a buffer scope (blockpool.mli): the views it
   reads stay its pages' bytes until it ends. *)
let with_op t f =
  Blockpool.scope @@ fun () ->
  if not t.record_grain then f ()
  else
    let rec loop () =
      match f () with
      | v ->
        t.end_op ();
        v
      | exception Op_restart ->
        t.end_op ();
        loop ()
      | exception e ->
        t.end_op ();
        raise e
    in
    loop ()

let plain (vfs : Vfs.t) fd =
  let ps = vfs.Vfs.block_size in
  nohooks ~page_size:ps
    (fun page -> Vfs.read_page vfs fd page)
    (fun page data -> vfs.Vfs.write fd ~off:(page * ps) data)

let wal env txn fd =
  if Libtp.grain env = `Page then
    nohooks ~page_size:(Libtp.page_size env)
      (fun page -> Libtp.read_page env txn ~file:fd ~page)
      (fun page data -> Libtp.write_page env txn ~file:fd ~page data)
  else begin
    let locks = Libtp.locks env in
    let tid = Libtp.txn_id txn in
    let restartable obj mode =
      match Libtp.lock_restartable env txn obj mode with
      | `Granted -> ()
      | `Restart -> raise Op_restart
    in
    {
      page_size = Libtp.page_size env;
      record_grain = true;
      (* Reads go through the pool without a page lock: isolation comes
         from the record locks the access method takes, and structural
         stability from the file latch. *)
      get = (fun page -> Libtp.read_page_raw env txn ~file:fd ~page);
      put = (fun page data -> Libtp.write_page_raw env txn ~file:fd ~page data);
      put_sys = (fun page data -> Libtp.write_page_sys env txn ~file:fd ~page data);
      lock_rec =
        (fun ~page ~recno ~write ->
          restartable
            (Lockmgr.Rec (fd, page, recno))
            (if write then Lockmgr.Exclusive else Lockmgr.Shared));
      lock_meta =
        (fun ~write ->
          let obj = Lockmgr.Page (fd, 0) in
          if write then restartable obj Lockmgr.Exclusive
          else begin
            (* Meta pulse: wait out any uncommitted structure modifier
               (which holds the meta exclusively to commit), then let the
               lock go again — unless we already hold the node. *)
            let held = Lockmgr.holds locks ~txn:tid obj <> None in
            match Libtp.lock_restartable env txn obj Lockmgr.Shared with
            | `Granted -> if not held then Lockmgr.release locks ~txn:tid obj
            | `Restart ->
              if not held then Lockmgr.release locks ~txn:tid obj;
              raise Op_restart
          end);
      lock_page = (fun page -> restartable (Lockmgr.Page (fd, page)) Lockmgr.Exclusive);
      lock_file =
        (fun ~write ->
          restartable (Lockmgr.File fd)
            (if write then Lockmgr.Exclusive else Lockmgr.Shared));
      latch_file =
        (fun ~write ->
          Libtp.latch env txn (Lockmgr.File fd)
            (if write then Lockmgr.Exclusive else Lockmgr.Shared));
      latch_page =
        (fun ~page ~write ->
          Libtp.latch env txn
            (Lockmgr.Page (fd, page))
            (if write then Lockmgr.Exclusive else Lockmgr.Shared));
      end_op = (fun () -> Libtp.end_op env txn);
    }
  end
