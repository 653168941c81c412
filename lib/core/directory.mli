(** The copy directory: for each datum homed at this space, the encoding
    each peer's cached copy agrees with. It is both the base image a
    peer's byte-range delta patches against and the record of who holds
    copies of our data.

    Under concurrent admission a row belongs to the session that last
    recorded it, so a session-scoped purge drops exactly its rows. *)

open Srpc_memory

type t

val create : unit -> t

(** [record t ?owner ~peer ~addr image]: [peer]'s copy of our datum at
    [addr] is now byte-for-byte [image]. [owner] is the recording
    session under concurrent admission, [None] otherwise. *)
val record : t -> ?owner:int -> peer:Space_id.t -> addr:int -> string -> unit

(** The image [peer] holds of our datum at [addr], if any. *)
val base : t -> peer:Space_id.t -> addr:int -> string option

(** Forget every copy of the datum at [addr] (it was freed). *)
val remove : t -> int -> unit

(** Drop the rows the session [owner] recorded. *)
val purge : t -> owner:int -> unit

val reset : t -> unit
