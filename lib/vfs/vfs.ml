type fd = int

type file_kind = File | Dir

type stat = { inum : int; size : int; kind : file_kind; protected_ : bool }

type error_code =
  | Not_found
  | Exists
  | Not_dir
  | Is_dir
  | No_space
  | Not_supported
  | Invalid

exception Error of error_code * string

exception Crashed

let string_of_error_code = function
  | Not_found -> "not found"
  | Exists -> "already exists"
  | Not_dir -> "not a directory"
  | Is_dir -> "is a directory"
  | No_space -> "no space left on device"
  | Not_supported -> "operation not supported"
  | Invalid -> "invalid argument"

let error code fmt =
  Format.kasprintf (fun msg -> raise (Error (code, msg))) fmt

type t = {
  name : string;
  block_size : int;
  create : string -> fd;
  open_file : string -> fd;
  read : fd -> off:int -> len:int -> bytes;
  read_block : fd -> int -> bytes;
  prefetch : (fd * int) list -> unit;
  write : fd -> off:int -> bytes -> unit;
  truncate : fd -> int -> unit;
  size : fd -> int;
  fsync : fd -> unit;
  sync : unit -> unit;
  remove : string -> unit;
  mkdir : string -> unit;
  readdir : string -> (string * file_kind) list;
  exists : string -> bool;
  stat : string -> stat;
  set_protected : string -> bool -> unit;
}

let read_page vfs fd b =
  let bs = vfs.block_size in
  let size = vfs.size fd in
  if (b + 1) * bs <= size then vfs.read_block fd b
  else begin
    let page = Bytes.make bs '\000' in
    if b * bs < size then begin
      let chunk = vfs.read fd ~off:(b * bs) ~len:bs in
      Bytes.blit chunk 0 page 0 (Bytes.length chunk)
    end;
    page
  end

let () =
  Printexc.register_printer (function
    | Error (code, msg) ->
      Some (Printf.sprintf "Vfs.Error (%s: %s)" (string_of_error_code code) msg)
    | _ -> None)
