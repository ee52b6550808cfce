(* Fixed-size hash tables whose bucket array is young (see keytbl.mli). *)

let mix h x =
  let h = (h lxor x) * 0x5bd1e995 in
  h lxor (h lsr 15)

module Make (H : Hashtbl.HashedType) = struct
  type 'a t = (H.t * 'a) list array

  let buckets = 256
  let create () : 'a t = Array.make buckets []
  let clear (t : 'a t) = Array.fill t 0 buckets []
  let index k = H.hash k land (buckets - 1)

  let find_opt (t : 'a t) k =
    let rec find = function
      | [] -> None
      | (k', v) :: rest -> if H.equal k k' then Some v else find rest
    in
    find t.(index k)

  let add (t : 'a t) k v =
    let i = index k in
    t.(i) <- (k, v) :: t.(i)

  let mem t k = Option.is_some (find_opt t k)
end
