// Fixture for the ctxflow analyzer: functions that receive a context must
// thread it — detaching via context.Background/TODO is flagged.
package fixture

import "context"

func WorkCtx(ctx context.Context) { _ = ctx }

func driver(ctx context.Context) {
	WorkCtx(ctx)             // threading the caller's ctx: fine
	_ = context.Background() // want `detaches cancellation`
	_ = context.TODO()       // want `detaches cancellation`
}

func noCtx() {
	WorkCtx(context.Background()) // building a root context is the context-free caller's job
}

func closureInside(ctx context.Context) {
	f := func() {
		_ = context.Background() // want `detaches cancellation`
	}
	f()
	WorkCtx(ctx)
}
