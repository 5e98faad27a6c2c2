module selfstab/bench

go 1.24.0

require selfstab v0.0.0

replace selfstab => ../
