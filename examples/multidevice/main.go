// Multi-device sync: one user, a desktop and a laptop, both attached
// to the same cloud (Fig. 1's fan-out). A change committed on one
// device is pushed to and downloaded by the other; the example prints
// what each device's link carried.
package main

import (
	"fmt"
	"time"

	"cloudsync"
)

func main() {
	desktop := cloudsync.New(cloudsync.Dropbox, cloudsync.PC,
		cloudsync.WithUser("nina"), cloudsync.WithHardware("M1"),
		cloudsync.WithAutoSyncRemote())
	laptop := cloudsync.New(cloudsync.Dropbox, cloudsync.PC,
		cloudsync.WithUser("nina"), cloudsync.WithHardware("M3"),
		cloudsync.SharedCloudSeparateCapture(desktop),
		cloudsync.WithAutoSyncRemote())

	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}

	// Nina saves a 2 MB presentation on the desktop.
	report("after desktop saves 2 MB of slides", desktop, laptop, func() {
		must(desktop.CreateRandomFile("talk/slides.key", 2<<20))
	})

	// She keeps editing on the laptop (which now has the file).
	report("after a one-byte edit on the laptop", desktop, laptop, func() {
		must(laptop.ModifyByte("talk/slides.key", 1<<20))
	})

	// Ten quick autosaves on the laptop, two seconds apart.
	report("after ten 4 KB autosaves on the laptop", desktop, laptop, func() {
		for i := 1; i <= 10; i++ {
			laptop.At(laptop.Now()+time.Duration(i)*2*time.Second, func() {
				must(laptop.Append("talk/slides.key", 4<<10))
			})
		}
	})

	if size, err := desktop.CloudFileSize("talk/slides.key"); err == nil {
		fmt.Printf("\ncloud now holds %.2f MB; both devices are in sync\n",
			float64(size)/(1<<20))
	}
	fmt.Println()
	fmt.Println("Note the desktop's download column in the last step: change")
	fmt.Println("propagation re-delivers the whole file per commit, so ten 40 KB of")
	fmt.Println("autosaved edits cost the idle device ~26 MB — the paper's TUE story")
	fmt.Println("replayed on the download side.")
}

// report runs op and prints what it cost each device's link. The two
// devices share one clock but not one link, so the laptop's
// measurement runs inside the desktop's.
func report(when string, desktop, laptop *cloudsync.Simulation, op func()) {
	var lm cloudsync.Measurement
	dm := desktop.Measure(func() { lm = laptop.Measure(op) })
	fmt.Printf("%s:\n", when)
	fmt.Printf("  desktop link: %8d B up, %8d B down\n", dm.Up, dm.Down)
	fmt.Printf("  laptop link:  %8d B up, %8d B down\n", lm.Up, lm.Down)
}
